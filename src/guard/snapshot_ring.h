// In-memory ring of last-known-good state snapshots.
//
// Each entry is an opaque CheckpointWriter blob produced by the owning
// engine's save callback (global model parameters or surrogate quality state,
// plus the attached TuningPolicy's serialized state), tagged with the round
// it was taken at and its health metric. Rollback PEEKS — it never pops — so
// a persistent attack that re-triggers every round keeps restoring from the
// same good history instead of draining it; escalation to older entries is
// the caller's job (TrainingGuard tracks consecutive triggers).
#ifndef SRC_GUARD_SNAPSHOT_RING_H_
#define SRC_GUARD_SNAPSHOT_RING_H_

#include <cstddef>
#include <deque>
#include <string>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class SnapshotRing {
 public:
  struct Entry {
    size_t round = 0;
    double metric = 0.0;
    std::string blob;

    template <typename Self, typename Archive>
    static void Fields(Self& self, Archive& a) {
      Io(a, self.round, self.metric, self.blob);
    }
  };

  SnapshotRing() = default;
  explicit SnapshotRing(size_t capacity) : capacity_(capacity) {}

  // Appends a snapshot, evicting the oldest entry beyond capacity.
  void Push(size_t round, double metric, std::string blob);

  bool Empty() const { return entries_.empty(); }
  size_t Size() const { return entries_.size(); }

  // depth 0 = newest entry, depth Size()-1 = oldest; deeper requests clamp
  // to the oldest entry.
  const Entry& FromNewest(size_t depth) const;

  void SaveState(CheckpointWriter& w) const { Io(w, entries_); }
  void LoadState(CheckpointReader& r) { Io(r, entries_); }

 private:
  size_t capacity_ = 0;
  std::deque<Entry> entries_;  // oldest at front, newest at back
};

}  // namespace floatfl

#endif  // SRC_GUARD_SNAPSHOT_RING_H_
