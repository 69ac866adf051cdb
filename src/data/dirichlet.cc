#include "src/data/dirichlet.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

std::vector<ClientShard> PartitionDirichlet(const PartitionConfig& config, Rng& rng) {
  FLOATFL_CHECK(config.num_clients > 0);
  FLOATFL_CHECK(config.num_classes > 0);
  FLOATFL_CHECK(config.alpha > 0.0);
  std::vector<ClientShard> shards;
  shards.reserve(config.num_clients);
  for (size_t c = 0; c < config.num_clients; ++c) {
    const double raw = rng.LogNormal(config.samples_median, config.samples_sigma);
    const size_t n = std::max<size_t>(config.min_samples, static_cast<size_t>(raw));
    const std::vector<double> dist = rng.Dirichlet(config.alpha, config.num_classes);
    ClientShard shard;
    shard.class_counts.assign(config.num_classes, 0);
    // Multinomial draw via sequential weighted sampling.
    const double total = Rng::WeightTotal(dist);
    for (size_t s = 0; s < n; ++s) {
      const size_t k = rng.WeightedIndex(dist, total);
      ++shard.class_counts[k];
    }
    shard.total = n;
    shards.push_back(std::move(shard));
  }
  return shards;
}

std::vector<ClientShard> PartitionDataset(const DatasetSpec& spec, size_t num_clients,
                                          double alpha, Rng& rng) {
  PartitionConfig config;
  config.num_clients = num_clients;
  config.num_classes = spec.num_classes;
  config.alpha = alpha;
  config.samples_median = spec.samples_per_client_median;
  config.samples_sigma = spec.samples_per_client_sigma;
  return PartitionDirichlet(config, rng);
}

}  // namespace floatfl
