#include "src/nn/optimizer.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

TrainResult TrainSgd(Mlp& model, const Tensor& inputs, const std::vector<int>& labels,
                     const SgdConfig& config, Rng& rng) {
  FLOATFL_CHECK(inputs.rows() == labels.size());
  FLOATFL_CHECK(config.batch_size > 0);
  TrainResult result;
  const size_t n = inputs.rows();
  if (n == 0) {
    return result;
  }
  const size_t dim = inputs.cols();
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<size_t> order = rng.Permutation(n);
    for (size_t start = 0; start < n; start += config.batch_size) {
      if (config.max_steps > 0 && result.batches >= config.max_steps) {
        return result;
      }
      const size_t count = std::min(config.batch_size, n - start);
      Tensor batch(count, dim);
      std::vector<int> batch_labels(count);
      for (size_t b = 0; b < count; ++b) {
        const size_t src = order[start + b];
        std::copy_n(inputs.data() + src * dim, dim, batch.data() + b * dim);
        batch_labels[b] = labels[src];
      }
      result.final_loss = model.TrainBatch(batch, batch_labels,
                                           config.learning_rate, config.frozen_layers);
      ++result.batches;
      result.samples += count;
    }
  }
  return result;
}

}  // namespace floatfl
