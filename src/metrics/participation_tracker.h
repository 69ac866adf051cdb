// Participation bookkeeping: selected-vs-completed per client (Figure 2a's
// bias analysis) and success/failure counts per optimization technique
// (Figures 6 and 11, right panels).
#ifndef SRC_METRICS_PARTICIPATION_TRACKER_H_
#define SRC_METRICS_PARTICIPATION_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/opt/technique.h"

namespace floatfl {

// Defined in src/fl/experiment.h; forward-declared (fixed underlying type)
// to keep the metrics layer below the engine layer.
enum class DropoutReason : uint32_t;

class ParticipationTracker {
 public:
  explicit ParticipationTracker(size_t num_clients);

  // Safe to call from concurrent threads (internally serialized); all counts
  // are order-insensitive, so concurrent recording stays deterministic. The
  // read accessors below must not race with in-flight Record calls — the
  // engines only read after the per-round fan-out has joined.
  //
  // A failed round also counts under (technique, reason), feeding the
  // guard's quarantine heuristic (DESIGN.md §11) and the
  // per_technique_dropouts result field; DropoutReason::kNone records no
  // attribution (reason unknown).
  void Record(size_t client_id, TechniqueKind technique, bool completed, DropoutReason reason);

  size_t TotalSelected() const;
  size_t TotalCompleted() const;
  size_t TotalDropouts() const { return TotalSelected() - TotalCompleted(); }

  // Number of clients never selected / never completing a round.
  size_t NeverSelected() const;
  size_t NeverCompleted() const;

  struct TechniqueStats {
    size_t success = 0;
    size_t failure = 0;

    template <typename Self, typename Archive>
    static void Fields(Self& self, Archive& a) {
      Io(a, self.success, self.failure);
    }
  };
  const std::map<TechniqueKind, TechniqueStats>& PerTechnique() const { return per_technique_; }

  // Dropout counts keyed by technique, then by raw DropoutReason value
  // (uint32_t so the incomplete enum never needs completing here).
  using ReasonCounts = std::map<uint32_t, size_t>;
  const std::map<TechniqueKind, ReasonCounts>& DropoutsByTechnique() const {
    return dropouts_by_technique_;
  }

  const std::vector<size_t>& selected() const { return selected_; }
  const std::vector<size_t>& completed() const { return completed_; }

  // Checkpoint/resume. Not thread-safe; call with no in-flight Record.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    IoFixed(a, self.selected_, "checkpoint participation population mismatch");
    IoFixed(a, self.completed_, "checkpoint participation population mismatch");
    Io(a, self.per_technique_, self.dropouts_by_technique_);
  }

  std::mutex mu_;  // serializes Record
  std::vector<size_t> selected_;
  std::vector<size_t> completed_;
  std::map<TechniqueKind, TechniqueStats> per_technique_;
  std::map<TechniqueKind, ReasonCounts> dropouts_by_technique_;
};

}  // namespace floatfl

#endif  // SRC_METRICS_PARTICIPATION_TRACKER_H_
