// Dataset descriptors for the federated workloads used in the paper's
// evaluation, plus heterogeneity metrics over client shards.
//
// The real datasets (FEMNIST, CIFAR10, OpenImage, Google Speech Commands)
// are not shipped; each spec captures the properties that drive the
// simulation — class count, per-sample compute/communication relevance,
// total corpus size, convergence difficulty — and the synthetic generator in
// synthetic.h creates class-conditional data with the same shape for the
// real-training mode.
#ifndef SRC_DATA_DATASET_H_
#define SRC_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

namespace floatfl {

enum class DatasetId {
  kFemnist,
  kCifar10,
  kOpenImage,
  kSpeech,
  kEmnist,
};

struct DatasetSpec {
  DatasetId id;
  std::string name;
  size_t num_classes;
  // Mean/dispersion of per-client sample counts (log-normal).
  double samples_per_client_median;
  double samples_per_client_sigma;
  // Convergence-curve parameters for the surrogate accuracy model.
  double max_accuracy;       // asymptotic accuracy under ideal conditions
  double initial_accuracy;   // round-0 (random guess) accuracy
  double convergence_rate;   // per-effective-round fractional approach
  // Relative per-sample training cost (multiplier over the model's nominal
  // FLOPs/sample; e.g. OpenImage samples are bigger than FEMNIST's).
  double sample_cost_scale;
  // Input dimensionality of the synthetic stand-in for real training.
  size_t synthetic_dim;
};

// Returns the spec for a dataset id. All specs are compile-time constants.
const DatasetSpec& GetDatasetSpec(DatasetId id);

// A client's local shard: how many samples of each class it holds.
struct ClientShard {
  std::vector<size_t> class_counts;
  size_t total = 0;

  // Normalized label distribution (all zeros -> uniform).
  std::vector<double> LabelDistribution() const;
};

// L1 distance between the client's label distribution and the global one,
// in [0, 2]. 0 = perfectly IID client.
double LabelDivergence(const ClientShard& shard, const std::vector<double>& global_dist);

// Global label distribution over a population of shards.
std::vector<double> GlobalLabelDistribution(const std::vector<ClientShard>& shards);

}  // namespace floatfl

#endif  // SRC_DATA_DATASET_H_
