#include "src/metrics/participation_tracker.h"

#include "src/common/check.h"

namespace floatfl {

ParticipationTracker::ParticipationTracker(size_t num_clients)
    : selected_(num_clients, 0), completed_(num_clients, 0) {}

void ParticipationTracker::Record(size_t client_id, TechniqueKind technique, bool completed) {
  Record(client_id, technique, completed, static_cast<DropoutReason>(0));
}

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

size_t ParticipationTracker::DropoutCount(TechniqueKind technique, DropoutReason reason) const {
  const auto it = dropouts_by_technique_.find(technique);
  if (it == dropouts_by_technique_.end()) {
    return 0;
  }
  const auto jt = it->second.find(static_cast<uint32_t>(reason));
  return jt == it->second.end() ? 0 : jt->second;
}

size_t ParticipationTracker::SelectedCount(size_t client_id) const {
  FLOATFL_CHECK(client_id < selected_.size());
  return selected_[client_id];
}

size_t ParticipationTracker::CompletedCount(size_t client_id) const {
  FLOATFL_CHECK(client_id < completed_.size());
  return completed_[client_id];
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
