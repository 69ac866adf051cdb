// Configuration for the self-healing training guard (DESIGN.md §11).
//
// The guard watches the global training trajectory for divergence (non-finite
// health metrics, accuracy collapse, stalls), keeps an in-memory ring of the
// last-known-good states (global model or surrogate quality state plus the
// attached TuningPolicy), rolls back automatically on a watchdog trigger, and
// quarantines optimization actions whose failure attribution says they keep
// producing dropouts. The default-constructed config is a strict no-op: no
// health checks run, no snapshots are taken, Decide() results pass through
// untouched, and every pre-guard golden stays byte-identical.
#ifndef SRC_GUARD_GUARD_CONFIG_H_
#define SRC_GUARD_GUARD_CONFIG_H_

#include <cstddef>

namespace floatfl {

struct GuardConfig {
  // Master switch. false = strict no-op regardless of the other knobs.
  bool enabled = false;

  // --- Divergence watchdog -------------------------------------------------
  // Trigger a rollback when the health metric (test accuracy on the real
  // engines, surrogate global accuracy otherwise) drops more than this below
  // the best value seen so far. 0 disables the collapse check (the
  // non-finite check stays armed whenever the guard is enabled).
  double collapse_threshold = 0.1;
  // Trigger when the metric fails to improve by more than `stall_epsilon`
  // for `patience` consecutive rounds. 0 disables the stall check.
  size_t patience = 0;
  double stall_epsilon = 1e-4;

  // --- Last-known-good snapshot ring ---------------------------------------
  // Number of healthy states retained. Rollback restores the newest entry;
  // consecutive triggers escalate to older entries.
  size_t snapshot_ring = 4;
  // Minimum round spacing between snapshots (1 = every improving round).
  size_t snapshot_every = 1;
  // Per-tier health gate (DESIGN.md §13): refuse to snapshot a round whose
  // HealthSignal::coverage — the fraction of the updates that entered the
  // aggregation tree that reached the root — is below this. 0 (the
  // default) disables the gate: every pre-topology golden stays
  // byte-identical.
  double min_snapshot_coverage = 0.0;

  // --- Safe-mode action quarantine -----------------------------------------
  // After a rollback, every non-kNone technique decision is masked to
  // TechniqueKind::kNone for this many rounds ("do no harm" mode).
  size_t safe_mode_rounds = 5;
  // Per-technique failure attribution: once a technique has at least
  // `quarantine_min_trials` decisions and its attributable-failure rate
  // (crashes, corruption, rejections, transfer timeouts, OOM, deadline
  // misses) reaches `quarantine_failure_rate`, the technique is masked for
  // `quarantine_cooldown_rounds << (strikes - 1)` rounds — a deterministic
  // decaying re-trial schedule. 0 min_trials disables attribution quarantine.
  size_t quarantine_min_trials = 0;
  double quarantine_failure_rate = 0.6;
  size_t quarantine_cooldown_rounds = 8;
  size_t quarantine_max_strikes = 4;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.enabled, self.collapse_threshold, self.patience, self.stall_epsilon,
       self.snapshot_ring, self.snapshot_every, self.min_snapshot_coverage, self.safe_mode_rounds,
       self.quarantine_min_trials, self.quarantine_failure_rate, self.quarantine_cooldown_rounds,
       self.quarantine_max_strikes);
  }
};

// Aborts with a descriptive message when `config` violates a guard
// invariant. Called by every engine constructor (guard enabled or not, so a
// bad config fails fast even before someone flips `enabled`).
void ValidateGuardConfig(const GuardConfig& config);

}  // namespace floatfl

#endif  // SRC_GUARD_GUARD_CONFIG_H_
