// The rule-based tuning baseline of Section 4.4.
//
// (1) When CPU and network availability are both below "Moderate" (the
//     Table-1 21-40 % band), apply an extreme optimization: 75 % pruning,
//     75 % partial training, or 8-bit quantization.
// (2) Otherwise apply a mild one: 25 % pruning, 25 % partial training, or
//     16-bit quantization.
// The technique within each band is chosen at random; only the
// configuration level is chosen by the rules — exactly the heuristic FLOAT
// is compared against in Figure 6.
#ifndef SRC_CORE_HEURISTIC_POLICY_H_
#define SRC_CORE_HEURISTIC_POLICY_H_

#include <string>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/tuning_policy.h"

namespace floatfl {

class HeuristicPolicy final : public TuningPolicy {
 public:
  explicit HeuristicPolicy(uint64_t seed);

  TechniqueKind Decide(size_t client_id, const ClientObservation& client,
                       const GlobalObservation& global) override;
  void Report(size_t, const ClientObservation&, const GlobalObservation&, TechniqueKind, bool,
              double) override {}
  std::string Name() const override { return "heuristic"; }

  void SaveState(CheckpointWriter& w) const override { Io(w, rng_); }
  void LoadState(CheckpointReader& r) override { Io(r, rng_); }

 private:
  Rng rng_;
};

}  // namespace floatfl

#endif  // SRC_CORE_HEURISTIC_POLICY_H_
