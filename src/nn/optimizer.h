// Local-training loop: mini-batch SGD over a client's shard, with the knobs
// the FL engine needs (epochs, batch size, learning rate, frozen-layer count
// for partial training).
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "src/nn/mlp.h"
#include "src/nn/tensor.h"

namespace floatfl {

class Rng;

struct SgdConfig {
  float learning_rate = 0.05f;
  size_t batch_size = 20;
  size_t epochs = 1;
  // Number of leading layers excluded from updates (partial training).
  size_t frozen_layers = 0;
  // Stop after this many mini-batch steps across all epochs (0 = unlimited).
  // Models a mid-training interruption for partial-work salvage (DESIGN.md
  // §16): the same shuffled batch sequence is consumed, just cut short, so
  // the first max_steps batches are bit-identical to an uninterrupted run.
  size_t max_steps = 0;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.learning_rate, self.batch_size, self.epochs, self.frozen_layers, self.max_steps);
  }
};

struct TrainResult {
  double final_loss = 0.0;
  size_t batches = 0;
  size_t samples = 0;
};

// Runs `config.epochs` shuffled passes over (inputs, labels).
// inputs is (num_samples x dim); labels has num_samples entries.
TrainResult TrainSgd(Mlp& model, const Tensor& inputs, const std::vector<int>& labels,
                     const SgdConfig& config, Rng& rng);

}  // namespace floatfl

#endif  // SRC_NN_OPTIMIZER_H_
