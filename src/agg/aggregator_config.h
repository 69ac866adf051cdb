// Configuration of the server-side aggregation rule (DESIGN.md §9).
//
// The default (kFedAvg with default knobs) reproduces the historical plain
// weighted mean bit-for-bit — selecting it is a strict no-op relative to the
// pre-subsystem engines. The robust rules trade a little clean-run accuracy
// for resistance to Byzantine clients (FaultConfig::byzantine_*): a bounded
// fraction of colluding attackers cannot drag the aggregate arbitrarily far.
#ifndef SRC_AGG_AGGREGATOR_CONFIG_H_
#define SRC_AGG_AGGREGATOR_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace floatfl {

enum class AggregatorKind : uint32_t {
  kFedAvg = 0,       // weighted mean (historical behavior, extracted)
  kMedian = 1,       // coordinate-wise median, unweighted
  kTrimmedMean = 2,  // coordinate-wise mean after trimming both tails
  kKrum = 3,         // (Multi-)Krum distance-based update selection
  kNormClip = 4,     // clip update L2 norm in delta space, then weighted mean
};

struct AggregatorConfig {
  AggregatorKind kind = AggregatorKind::kFedAvg;
  // kTrimmedMean: fraction of updates trimmed from *each* tail per
  // coordinate, in [0, 0.5). When trimming would consume every update the
  // rule degrades to the coordinate-wise median.
  double trim_fraction = 0.2;
  // kKrum: assumed number of Byzantine updates f. 0 = derive the maximum
  // admissible (n - 3) / 2 from the cohort size each round.
  size_t krum_assumed_byzantine = 0;
  // kKrum: how many lowest-scoring updates Multi-Krum averages. 0 = derive
  // max(1, n - f - 2) each round (classic Multi-Krum selection bound).
  size_t multi_krum_m = 0;
  // kNormClip: L2 radius, in delta space (update minus current global
  // model), that each update is clipped to before the weighted mean.
  double clip_norm = 10.0;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.kind, self.trim_fraction, self.krum_assumed_byzantine, self.multi_krum_m,
       self.clip_norm);
  }
};

}  // namespace floatfl

#endif  // SRC_AGG_AGGREGATOR_CONFIG_H_
