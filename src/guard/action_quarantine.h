// Per-technique failure attribution and deterministic action quarantine.
//
// Every technique decision an engine makes is a trial; dropouts with an
// attributable reason (crash, corruption, rejection, transfer timeout, OOM,
// deadline miss — not plain unavailability or departure, which no technique
// causes) count as failures. Once a technique accumulates enough trials and
// its failure rate crosses the configured threshold, the technique is masked
// for a cooldown window that doubles with each repeat offense (capped
// strikes) — a decaying re-trial schedule. All counting is integer, all
// thresholds are compared in a fixed order, and there is no RNG, so the
// quarantine state is bit-identical for any thread count.
//
// Quarantine is keyed by TechniqueKind alone. The issue's (state-bucket,
// technique) pairing is deliberately coarsened: the engines call Observe from
// their sequential bookkeeping phase where the encoded agent state is not in
// scope, and a per-technique key already isolates the harmful action (see
// DESIGN.md §11).
#ifndef SRC_GUARD_ACTION_QUARANTINE_H_
#define SRC_GUARD_ACTION_QUARANTINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/guard/guard_config.h"
#include "src/opt/technique.h"

namespace floatfl {

class CheckpointWriter;
class CheckpointReader;
enum class DropoutReason : uint32_t;

class ActionQuarantine {
 public:
  explicit ActionQuarantine(const GuardConfig& config);

  // True when `reason` is a failure a technique choice can plausibly cause.
  static bool Attributable(DropoutReason reason);

  // True when `technique` is masked at `round`. kNone is never masked.
  bool Blocked(TechniqueKind technique, size_t round) const;

  // Records one trial of `technique` at `round`. Returns true when this
  // observation tripped a new quarantine window (counters reset, strikes
  // escalate, cooldown doubles per strike).
  bool Observe(TechniqueKind technique, bool completed, DropoutReason reason, size_t round);

  // First round at which `technique` is allowed again (0 = never blocked).
  size_t QuarantinedUntil(TechniqueKind technique) const;
  size_t Strikes(TechniqueKind technique) const;
  // Number of techniques currently inside a cooldown window at `round`.
  size_t BlockedCount(size_t round) const;

  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  struct Cell {
    size_t trials = 0;
    size_t failures = 0;
    size_t until_round = 0;  // blocked while round < until_round
    size_t strikes = 0;
  };

  const Cell& CellFor(TechniqueKind technique) const;
  Cell& CellFor(TechniqueKind technique);

  GuardConfig config_;
  std::vector<Cell> cells_;  // indexed by static_cast<size_t>(TechniqueKind)
};

}  // namespace floatfl

#endif  // SRC_GUARD_ACTION_QUARANTINE_H_
