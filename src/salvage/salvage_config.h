// Graceful-degradation layer for stragglers (DESIGN.md §16): partial-work
// salvage and speculative re-execution. A client interrupted mid-round
// (crash, deadline miss, departure, exhausted upload) no longer forfeits
// 100% of its work: it emits a partial update carrying completed-local-steps
// metadata, which the engines scale into the aggregate. A deterministic
// SpeculativeScheduler additionally over-dispatches backup executions for
// clients whose per-client EWMA deadline profiles predict a miss.
//
// The all-default config is a strict no-op: no partial is ever collected,
// no backup is ever planned, no extra RNG is drawn, and every pre-existing
// golden stays byte-identical.
#ifndef SRC_SALVAGE_SALVAGE_CONFIG_H_
#define SRC_SALVAGE_SALVAGE_CONFIG_H_

#include <cstdint>

namespace floatfl {

// Dedup-key namespace for partial uploads: a salvaged partial passes the
// same admission gates as a fresh upload but under its own attempt number,
// so an interrupted client's partial can never fold with (or be folded by)
// its own fresh delivery of the same round. Far above any real attempt
// counter (fresh sync uploads use attempt 0, async uses the launch count).
inline constexpr uint64_t kPartialUpdateAttempt = 1u << 20;

struct SalvageConfig {
  // Master switch for partial-work salvage. Off = all-or-nothing rounds,
  // bit-for-bit the pre-salvage behavior.
  bool enabled = false;

  // Minimum completed-work fraction (local steps for training interruptions,
  // acked payload bytes for upload interruptions) a partial must carry to be
  // salvaged. Below this the partial is discarded as noise.
  double min_progress = 0.25;

  // Speculative re-execution: dispatch deterministic backup executions for
  // selected clients whose EWMA deadline profile (Client::kProfileEwma*)
  // predicts a miss. First valid completion wins; the loser is charged as
  // redundant work. Sync engine only — the async engine has no round
  // deadline and refuses speculation at construction, like topology.
  bool speculation = false;

  // A primary is predicted to miss when its smoothed relative deadline
  // overshoot (last_deadline_diff, EWMA of (spent-deadline)/deadline)
  // exceeds this margin.
  double speculation_margin = 0.0;

  // Backups per round are capped at ceil(max_backup_fraction * cohort).
  double max_backup_fraction = 0.25;

  // True when any part of the layer is armed.
  bool active() const { return enabled || speculation; }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.enabled, self.min_progress, self.speculation, self.speculation_margin,
       self.max_backup_fraction);
  }
};

// Aborts with a descriptive message on an invalid config; called by the
// engine constructors so misconfigurations fail at construction.
void ValidateSalvageConfig(const SalvageConfig& config);

}  // namespace floatfl

#endif  // SRC_SALVAGE_SALVAGE_CONFIG_H_
