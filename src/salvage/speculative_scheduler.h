// Deterministic speculative re-execution planner (DESIGN.md §16). Each
// round it inspects the selected cohort's per-client EWMA deadline profiles
// (Client::last_deadline_diff, smoothed with the shared kProfileEwma*
// weights) and assigns one backup client to every primary predicted to miss
// the deadline, up to ceil(max_backup_fraction * cohort). Backup candidates
// come from a pure ring scan over the population — no RNG draws — so the
// plan is a function of (round state, profiles) alone and thread-count
// invariant by construction. The only cross-round state is the ring cursor
// (spreads backup duty across the population) and cumulative counters; both
// serialize for bit-exact resume.
#ifndef SRC_SALVAGE_SPECULATIVE_SCHEDULER_H_
#define SRC_SALVAGE_SPECULATIVE_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/salvage/salvage_config.h"

namespace floatfl {

class Client;

// One planned backup: re-execute primary `primary_slot`'s round (same
// technique decision flow, its own fault draws) on `backup_client_id`.
struct BackupPlan {
  size_t primary_slot = 0;       // index into the round's selected cohort
  size_t backup_client_id = 0;   // population id of the backup executor
};

class SpeculativeScheduler {
 public:
  SpeculativeScheduler() = default;
  explicit SpeculativeScheduler(const SalvageConfig& config) : config_(config) {}

  // Plans this round's backups. `selected` holds the cohort's client ids in
  // slot order; `clients` is the full population. Returns plans in primary
  // slot order. Empty (and draws nothing, touches nothing) when speculation
  // is off.
  std::vector<BackupPlan> Plan(size_t round, const std::vector<size_t>& selected,
                               const std::vector<Client>& clients);

  // Cumulative across the run; ride inside engine checkpoints.
  uint64_t BackupsPlanned() const { return backups_planned_; }
  uint64_t RoundsPlanned() const { return rounds_planned_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.cursor_, self.backups_planned_, self.rounds_planned_);
  }

  SalvageConfig config_;
  // Ring-scan start offset; advances by the number of backups drafted so
  // consecutive rounds spread backup duty across the population instead of
  // hammering the clients right after the cohort.
  uint64_t cursor_ = 0;
  uint64_t backups_planned_ = 0;
  uint64_t rounds_planned_ = 0;
};

}  // namespace floatfl

#endif  // SRC_SALVAGE_SPECULATIVE_SCHEDULER_H_
