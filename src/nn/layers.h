// Layers for the miniature training stack: Dense (fully connected) with ReLU
// activations and a softmax cross-entropy head. Enough to train real MLP
// classifiers on the synthetic federated datasets and to give the
// optimization techniques real tensors to transform.
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <cstddef>
#include <vector>

#include "src/nn/tensor.h"

namespace floatfl {

class Rng;

// Fully connected layer: y = x W + b, with optional ReLU.
class DenseLayer {
 public:
  DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng);

  // Forward for a batch (batch x in_dim) -> (batch x out_dim). Caches the
  // input and pre-activation needed for Backward.
  Tensor Forward(const Tensor& input);

  // The same output as Forward, caching nothing: safe to call concurrently.
  Tensor Infer(const Tensor& input) const;

  // Backward pass: takes dL/dy, accumulates weight/bias gradients and returns
  // dL/dx. Must be called after Forward on the same batch.
  Tensor Backward(Tensor grad_output);

  // Backward without dL/dx, for the lowest layer being trained: nothing
  // reads its input gradient.
  void AccumulateGradients(Tensor grad_output);

  // Applies an SGD step with the given learning rate and clears gradients.
  // If `frozen` is true the parameters are left untouched (partial training).
  void Step(float lr, bool frozen);

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  size_t ParamCount() const { return weights_.size() + bias_.size(); }
  bool relu() const { return relu_; }

 private:
  // input * W + b, before the activation.
  Tensor PreActivation(const Tensor& input) const;
  // Applies the ReLU mask to dL/dy in place and adds this batch's
  // contribution into the weight and bias gradients.
  void MaskAndAccumulate(Tensor& grad);

  Tensor weights_;  // in_dim x out_dim
  Tensor bias_;     // 1 x out_dim
  Tensor grad_w_;
  Tensor grad_b_;
  Tensor last_input_;
  Tensor last_pre_activation_;
  bool relu_;
};

// Softmax + cross-entropy loss head.
//
// Forward returns per-batch mean loss; Gradient returns dL/dlogits for
// Backward through the network. Labels are class indices.
struct SoftmaxXent {
  // probs is filled with softmax(logits).
  static double Loss(const Tensor& logits, const std::vector<int>& labels, Tensor* probs);
  static Tensor Gradient(const Tensor& probs, const std::vector<int>& labels);
  // Fraction of argmax predictions matching labels.
  static double Accuracy(const Tensor& logits, const std::vector<int>& labels);

  // One row of the above: Loss sums RowLoss in row order, and Accuracy
  // counts the rows whose ArgMax is the label (the first maximum wins).
  // `probs` receives the row's softmax.
  static double RowLoss(const float* logits, size_t cols, int label, float* probs);
  static size_t ArgMax(const float* logits, size_t cols);
};

}  // namespace floatfl

#endif  // SRC_NN_LAYERS_H_
