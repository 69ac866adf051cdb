#include "src/metrics/participation_tracker.h"

#include "src/common/check.h"

namespace floatfl {

ParticipationTracker::ParticipationTracker(size_t num_clients)
    : selected_(num_clients, 0), completed_(num_clients, 0) {}

void ParticipationTracker::Record(size_t client_id, TechniqueKind technique, bool completed,
                                  DropoutReason reason) {
  FLOATFL_CHECK(client_id < selected_.size());
  std::lock_guard<std::mutex> lock(mu_);
  ++selected_[client_id];
  auto& stats = per_technique_[technique];
  if (completed) {
    ++completed_[client_id];
    ++stats.success;
  } else {
    ++stats.failure;
    // Reason 0 == DropoutReason::kNone: the caller did not attribute the
    // failure, so record nothing rather than a bogus bucket.
    if (static_cast<uint32_t>(reason) != 0) {
      ++dropouts_by_technique_[technique][static_cast<uint32_t>(reason)];
    }
  }
}

size_t ParticipationTracker::TotalSelected() const {
  size_t total = 0;
  for (size_t s : selected_) {
    total += s;
  }
  return total;
}

size_t ParticipationTracker::TotalCompleted() const {
  size_t total = 0;
  for (size_t c : completed_) {
    total += c;
  }
  return total;
}

size_t ParticipationTracker::NeverSelected() const {
  size_t count = 0;
  for (size_t s : selected_) {
    if (s == 0) {
      ++count;
    }
  }
  return count;
}

size_t ParticipationTracker::NeverCompleted() const {
  size_t count = 0;
  for (size_t c : completed_) {
    if (c == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace floatfl
