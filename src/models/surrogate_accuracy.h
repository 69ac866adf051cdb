// Analytic convergence model for paper-scale FL runs.
//
// Training ResNet-34 for 200 clients x 300 rounds is replaced by a
// saturating convergence curve whose per-round progress depends on exactly
// the factors the paper's claims hinge on:
//   * how many selected clients actually delivered an update (dropouts
//     directly slow and cap convergence),
//   * how much of the (non-IID) data distribution the successful cohort
//     covers (selection bias lowers the achievable ceiling),
//   * the accuracy impact of the straggler optimizations applied to each
//     update (aggressive pruning/quantization add noise),
//   * staleness of async updates (FedBuff).
// Per-client accuracy additionally degrades with the divergence of the
// client's local distribution from the global one, scaled by how rarely the
// client's data made it into the aggregate — reproducing the paper's
// top-10% / average / bottom-10% spread (Figures 3, 5, 6, 12, 13).
// See DESIGN.md §3 for the substitution rationale.
#ifndef SRC_MODELS_SURROGATE_ACCURACY_H_
#define SRC_MODELS_SURROGATE_ACCURACY_H_

#include <cstddef>
#include <vector>

#include "src/data/dataset.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct SurrogateConfig {
  double max_accuracy = 0.8;
  double initial_accuracy = 0.05;
  double convergence_rate = 0.03;
  // Expected successful participants per round (K in the paper's setups).
  double participation_target = 30.0;
  // Strength of per-client non-IID penalty (0 disables).
  double divergence_penalty = 0.45;
  // Per-round contribution discount per unit of staleness.
  double staleness_discount = 0.15;
};

SurrogateConfig SurrogateConfigFor(const DatasetSpec& spec, double participation_target);

struct ClientContribution {
  size_t client_id = 0;
  // 1 - accuracy impact of the optimization applied to this update (1 = a
  // full-quality update, lower for aggressive pruning/quantization).
  double quality = 1.0;
  // Staleness in aggregation rounds (0 for synchronous FL).
  double staleness = 0.0;
  // Completed-work weight in (0, 1]: 1 for a full update, the completed-step
  // (or acked-byte) fraction for a salvaged partial (DESIGN.md §16). The
  // weight scales the contribution symmetrically — numerator AND denominator
  // of the round-quality average — so a partial adds its fraction of
  // participation without diluting the cohort's quality, and weight 1.0 is
  // bit-identical to the pre-salvage arithmetic.
  double weight = 1.0;

  // A buffered FedBuff update in the async payload.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.client_id, self.quality, self.staleness, self.weight);
  }
};

class SurrogateAccuracyModel {
 public:
  SurrogateAccuracyModel(const SurrogateConfig& config, const std::vector<ClientShard>& shards);

  // Advances the global accuracy by one aggregation round given the updates
  // that were successfully aggregated.
  void RoundUpdate(const std::vector<ClientContribution>& successful);

  double GlobalAccuracy() const { return global_accuracy_; }

  // Per-client test accuracy (global accuracy discounted by non-IID
  // mismatch for clients whose data rarely reached the aggregate).
  double ClientAccuracy(size_t client_id) const;
  std::vector<double> AllClientAccuracies() const;

  // Fraction of the population's data mass held by clients that have ever
  // contributed a successful update.
  double DataCoverage() const;

  size_t NumClients() const { return divergence_.size(); }

  // Checkpoint/resume of the mutable convergence state (the shard-derived
  // divergence/share tables are rebuilt deterministically at construction).
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.global_accuracy_, self.rounds_, self.quality_ewma_, self.contrib_ewma_,
       self.ever_contributed_);
  }

  SurrogateConfig config_;
  double global_accuracy_;
  size_t rounds_ = 0;
  // Smoothed quality of aggregated updates; sustained aggressive
  // optimization (low quality) lowers the achievable accuracy ceiling, which
  // is the Figure-5 trade-off between participation and accuracy.
  double quality_ewma_ = 1.0;
  std::vector<double> divergence_;     // L1 label divergence per client, [0,2]
  std::vector<double> data_share_;     // client's share of total samples
  std::vector<double> contrib_ewma_;   // smoothed successful-participation level
  std::vector<bool> ever_contributed_;
  std::vector<double> global_dist_;
  std::vector<ClientShard> shards_;
};

}  // namespace floatfl

#endif  // SRC_MODELS_SURROGATE_ACCURACY_H_
