// Pluggable server-side aggregation over real model parameter vectors
// (DESIGN.md §9).
//
// Determinism contract: every implementation is a pure, fixed-order
// reduction over the updates in the order the engine delivers them
// (selection order). No randomness, no reliance on container iteration
// order, ties broken by update index — so aggregation is bit-for-bit
// identical across thread counts and across checkpoint/resume boundaries.
// The only mutable state is the cumulative defense counters, which are
// serialized into checkpoints.
#ifndef SRC_AGG_AGGREGATOR_H_
#define SRC_AGG_AGGREGATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/agg/aggregator_config.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

class ThreadPool;

// Weighted in-place average of parameter vectors: the FedAvg rule, one
// bit-identical implementation every aggregator and engine shares. `weights`
// must sum to a positive value; vectors must agree in length. Fixed blocks of
// coordinates fan out over `pool`; with no pool, or no workers, one pass
// runs inline. Each output coordinate adds its terms in update order
// starting from 0.0f, so the result does not depend on the pool.
std::vector<float> WeightedMeanAggregate(const std::vector<std::vector<float>>& parameter_sets,
                                         const std::vector<double>& weights,
                                         ThreadPool* pool = nullptr);

// Per-round defense accounting produced by one Aggregate() call.
struct AggregatorStats {
  // kNormClip: updates whose delta exceeded clip_norm and was rescaled.
  size_t updates_clipped = 0;
  // kKrum: updates excluded by Multi-Krum selection (n - m).
  size_t krum_rejections = 0;
  // kTrimmedMean: updates excluded per coordinate (2 * trim count).
  size_t updates_trimmed = 0;
};

// Aborts on out-of-range knobs (trim_fraction outside [0, 0.5), clip_norm
// not positive). Called by every engine constructor.
void ValidateAggregatorConfig(const AggregatorConfig& config);

class Aggregator {
 public:
  explicit Aggregator(const AggregatorConfig& config) : config_(config) {}
  virtual ~Aggregator() = default;

  AggregatorKind kind() const { return config_.kind; }
  const AggregatorConfig& config() const { return config_; }

  // Reduces `updates` (full parameter vectors, selection order) into the new
  // global parameters. `global` is the pre-round model, so rules that work
  // in delta space (norm clipping) can recover each client's update
  // direction. `round_stats`, when non-null, receives this call's defense
  // counts; the same counts accumulate into totals(). The rules whose last
  // step is the weighted mean (FedAvg, Krum, norm clipping) run it on `pool`
  // (null: inline), with the same result for any pool.
  std::vector<float> Aggregate(const std::vector<std::vector<float>>& updates,
                               const std::vector<double>& weights,
                               const std::vector<float>& global, AggregatorStats* round_stats,
                               ThreadPool* pool = nullptr);

  // Cumulative defense counters across all rounds (checkpointed).
  const AggregatorStats& totals() const { return totals_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 protected:
  virtual std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                         const std::vector<double>& weights,
                                         const std::vector<float>& global,
                                         AggregatorStats& stats, ThreadPool* pool) = 0;

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.totals_.updates_clipped, self.totals_.krum_rejections, self.totals_.updates_trimmed);
  }

  AggregatorConfig config_;
  AggregatorStats totals_;
};

// Factory for the configured rule. Never returns null.
std::unique_ptr<Aggregator> MakeAggregator(const AggregatorConfig& config);

}  // namespace floatfl

#endif  // SRC_AGG_AGGREGATOR_H_
