// Multi-layer perceptron classifier built from DenseLayers.
//
// Supports everything the FL engine and the optimization techniques need
// from a real model: forward/backward training, flattened parameter
// get/set (FedAvg aggregation, quantization, pruning) and per-layer
// freezing (partial training).
#ifndef SRC_NN_MLP_H_
#define SRC_NN_MLP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/nn/layers.h"
#include "src/nn/tensor.h"

namespace floatfl {

class Rng;
class ThreadPool;

class Mlp {
 public:
  // dims = {input, hidden..., classes}. All hidden layers use ReLU; the last
  // layer is linear (logits).
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  // The NextU64 draws that constructor takes from `rng`: one per weight.
  static uint64_t InitDraws(const std::vector<size_t>& dims);

  Tensor Forward(const Tensor& input);
  // Forward's output without caching anything: safe to call concurrently.
  Tensor Infer(const Tensor& input) const;

  // One SGD step over a batch. `frozen_layers` freezes the *first* k layers
  // (partial training trains only the top of the network, matching partial
  // training schemes that update a fraction of the model). Backpropagation
  // stops at the lowest trained layer, so frozen layers cost only their
  // forward pass. Returns mean loss.
  double TrainBatch(const Tensor& input, const std::vector<int>& labels, float lr,
                    size_t frozen_layers = 0);

  struct Evaluation {
    double accuracy = 0.0;
    double loss = 0.0;
  };
  // Accuracy and mean loss from one inference pass, bit-identical to
  // SoftmaxXent::Accuracy and SoftmaxXent::Loss on Forward(input). Fixed
  // blocks of rows fan out over `pool` (null: inline), and the correct count
  // and the loss sum are reduced in row order, so the result does not depend
  // on the pool.
  Evaluation Evaluate(const Tensor& input, const std::vector<int>& labels,
                      ThreadPool* pool = nullptr) const;
  double EvaluateAccuracy(const Tensor& input, const std::vector<int>& labels) const;
  double EvaluateLoss(const Tensor& input, const std::vector<int>& labels) const;

  size_t NumLayers() const { return layers_.size(); }
  size_t ParamCount() const;

  // Flattened parameter vector in a fixed layer order (weights then bias per
  // layer). SetParameters requires the exact same length.
  std::vector<float> GetParameters() const;
  // The same vector written into `out`, reusing its capacity.
  void GetParameters(std::vector<float>& out) const;
  void SetParameters(const std::vector<float>& params);

  DenseLayer& layer(size_t i) { return layers_[i]; }
  const DenseLayer& layer(size_t i) const { return layers_[i]; }

  // Weighted in-place average of parameter vectors (FedAvg aggregation).
  // `weights` must sum to a positive value; models must agree in shape.
  static std::vector<float> Aggregate(const std::vector<std::vector<float>>& parameter_sets,
                                      const std::vector<double>& weights);

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace floatfl

#endif  // SRC_NN_MLP_H_
