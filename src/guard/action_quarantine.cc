#include "src/guard/action_quarantine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/experiment.h"

namespace floatfl {

ActionQuarantine::ActionQuarantine(const GuardConfig& config)
    : config_(config), cells_(AllTechniques().size()) {}

bool ActionQuarantine::Attributable(DropoutReason reason) {
  switch (reason) {
    case DropoutReason::kOutOfMemory:
    case DropoutReason::kMissedDeadline:
    case DropoutReason::kCrashed:
    case DropoutReason::kCorrupted:
    case DropoutReason::kRejected:
    case DropoutReason::kTransferTimedOut:
      return true;
    case DropoutReason::kNone:
    case DropoutReason::kUnavailable:
    case DropoutReason::kDeparted:
    // Losing every edge in the failover chain is infrastructure weather, not
    // something the client's technique caused.
    case DropoutReason::kEdgeOrphaned:
    // Server-ingestion rejections (shed under overload, folded duplicates,
    // stale replays, rate limiting) blame the delivery path, not the
    // technique the client trained with.
    case DropoutReason::kShed:
    case DropoutReason::kDuplicate:
    case DropoutReason::kReplayed:
    case DropoutReason::kRateLimited:
    // Speculation outcomes (DESIGN.md §16): a covered primary's interruption
    // was already not the technique's doing, and a redundant backup lost a
    // race the scheduler created — neither indicts the technique.
    case DropoutReason::kBackupCovered:
    case DropoutReason::kBackupRedundant:
      return false;
  }
  return false;
}

const ActionQuarantine::Cell& ActionQuarantine::CellFor(TechniqueKind technique) const {
  const size_t index = static_cast<size_t>(technique);
  FLOATFL_CHECK(index < cells_.size());
  return cells_[index];
}

ActionQuarantine::Cell& ActionQuarantine::CellFor(TechniqueKind technique) {
  const size_t index = static_cast<size_t>(technique);
  FLOATFL_CHECK(index < cells_.size());
  return cells_[index];
}

bool ActionQuarantine::Blocked(TechniqueKind technique, size_t round) const {
  if (technique == TechniqueKind::kNone) {
    return false;  // the fallback action must always stay available
  }
  return round < CellFor(technique).until_round;
}

bool ActionQuarantine::Observe(TechniqueKind technique, bool completed, DropoutReason reason,
                               size_t round) {
  if (technique == TechniqueKind::kNone || config_.quarantine_min_trials == 0) {
    return false;
  }
  Cell& cell = CellFor(technique);
  ++cell.trials;
  if (!completed && Attributable(reason)) {
    ++cell.failures;
  }
  if (round < cell.until_round) {
    return false;  // already cooling down; don't stack windows
  }
  if (cell.trials < config_.quarantine_min_trials) {
    return false;
  }
  const double rate = static_cast<double>(cell.failures) / static_cast<double>(cell.trials);
  if (rate < config_.quarantine_failure_rate) {
    return false;
  }
  cell.strikes = std::min(cell.strikes + 1, config_.quarantine_max_strikes);
  const size_t cooldown = config_.quarantine_cooldown_rounds << (cell.strikes - 1);
  cell.until_round = round + 1 + cooldown;
  // Fresh trial window after re-admission: the technique re-earns (or
  // re-loses) its standing from scratch, so one bad era cannot ban it forever.
  cell.trials = 0;
  cell.failures = 0;
  return true;
}

size_t ActionQuarantine::QuarantinedUntil(TechniqueKind technique) const {
  return CellFor(technique).until_round;
}

size_t ActionQuarantine::Strikes(TechniqueKind technique) const {
  return CellFor(technique).strikes;
}

size_t ActionQuarantine::BlockedCount(size_t round) const {
  size_t count = 0;
  for (TechniqueKind kind : AllTechniques()) {
    if (Blocked(kind, round)) {
      ++count;
    }
  }
  return count;
}

void ActionQuarantine::SaveState(CheckpointWriter& w) const {
  w.Size(cells_.size());
  for (const Cell& cell : cells_) {
    w.Size(cell.trials);
    w.Size(cell.failures);
    w.Size(cell.until_round);
    w.Size(cell.strikes);
  }
}

void ActionQuarantine::LoadState(CheckpointReader& r) {
  const size_t n = r.Size();
  // A failed reader (truncated/corrupted archive) returns zeros; that is the
  // caller's error to report, not a process-aborting invariant violation.
  FLOATFL_CHECK_MSG(n == cells_.size() || !r.ok(), "guard quarantine cell count mismatch");
  if (n != cells_.size()) {
    return;
  }
  for (Cell& cell : cells_) {
    cell.trials = r.Size();
    cell.failures = r.Size();
    cell.until_round = r.Size();
    cell.strikes = r.Size();
  }
}

}  // namespace floatfl
