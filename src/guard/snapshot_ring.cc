#include "src/guard/snapshot_ring.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace floatfl {

void SnapshotRing::Push(size_t round, double metric, std::string blob) {
  FLOATFL_CHECK_MSG(capacity_ > 0, "SnapshotRing::Push on a zero-capacity ring");
  Entry entry;
  entry.round = round;
  entry.metric = metric;
  entry.blob = std::move(blob);
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) {
    entries_.pop_front();
  }
}

const SnapshotRing::Entry& SnapshotRing::FromNewest(size_t depth) const {
  FLOATFL_CHECK_MSG(!entries_.empty(), "SnapshotRing::FromNewest on an empty ring");
  const size_t clamped = std::min(depth, entries_.size() - 1);
  return entries_[entries_.size() - 1 - clamped];
}

}  // namespace floatfl
