#include <gtest/gtest.h>

#include "src/fl/experiment.h"
#include "src/metrics/aggregation_tracker.h"
#include "src/metrics/participation_tracker.h"
#include "src/metrics/resource_accountant.h"

namespace floatfl {
namespace {

// Dropouts on file under (technique, reason); 0 when none are.
size_t DropoutCount(const ParticipationTracker& tracker, TechniqueKind technique,
                    DropoutReason reason) {
  const auto& by_technique = tracker.DropoutsByTechnique();
  const auto it = by_technique.find(technique);
  if (it == by_technique.end()) {
    return 0;
  }
  const auto jt = it->second.find(static_cast<uint32_t>(reason));
  return jt == it->second.end() ? 0 : jt->second;
}

TEST(ResourceAccountantTest, SplitsUsefulAndWasted) {
  ResourceAccountant accountant;
  accountant.Record(3600.0, 1800.0, 1024.0, /*completed=*/true);
  accountant.Record(7200.0, 3600.0, 2048.0, /*completed=*/false);
  EXPECT_DOUBLE_EQ(accountant.Useful().compute_hours, 1.0);
  EXPECT_DOUBLE_EQ(accountant.Useful().comm_hours, 0.5);
  EXPECT_NEAR(accountant.Useful().memory_tb, 1024.0 / (1024.0 * 1024.0), 1e-12);
  EXPECT_DOUBLE_EQ(accountant.Wasted().compute_hours, 2.0);
  EXPECT_DOUBLE_EQ(accountant.Wasted().comm_hours, 1.0);
  EXPECT_EQ(accountant.RecordedRounds(), 2u);
}

TEST(ResourceAccountantTest, TotalIsSum) {
  ResourceAccountant accountant;
  accountant.Record(3600.0, 0.0, 0.0, true);
  accountant.Record(3600.0, 0.0, 0.0, false);
  EXPECT_DOUBLE_EQ(accountant.Useful().compute_hours + accountant.Wasted().compute_hours, 2.0);
}

TEST(ResourceTotalsTest, PlusEquals) {
  ResourceTotals a{1.0, 2.0, 3.0};
  ResourceTotals b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.compute_hours, 1.5);
  EXPECT_DOUBLE_EQ(a.comm_hours, 2.5);
  EXPECT_DOUBLE_EQ(a.memory_tb, 3.5);
}

TEST(ParticipationTrackerTest, CountsSelectionsAndCompletions) {
  ParticipationTracker tracker(5);
  tracker.Record(0, TechniqueKind::kNone, true, DropoutReason::kNone);
  tracker.Record(0, TechniqueKind::kNone, false, DropoutReason::kNone);
  tracker.Record(3, TechniqueKind::kPrune75, true, DropoutReason::kNone);
  EXPECT_EQ(tracker.selected()[0], 2u);
  EXPECT_EQ(tracker.completed()[0], 1u);
  EXPECT_EQ(tracker.selected()[3], 1u);
  EXPECT_EQ(tracker.TotalSelected(), 3u);
  EXPECT_EQ(tracker.TotalCompleted(), 2u);
  EXPECT_EQ(tracker.TotalDropouts(), 1u);
}

TEST(ParticipationTrackerTest, NeverCounts) {
  ParticipationTracker tracker(4);
  tracker.Record(1, TechniqueKind::kNone, true, DropoutReason::kNone);
  tracker.Record(2, TechniqueKind::kNone, false, DropoutReason::kNone);
  EXPECT_EQ(tracker.NeverSelected(), 2u);   // 0 and 3
  EXPECT_EQ(tracker.NeverCompleted(), 3u);  // 0, 2, 3
}

TEST(ParticipationTrackerTest, PerTechniqueStats) {
  ParticipationTracker tracker(2);
  tracker.Record(0, TechniqueKind::kQuant8, true, DropoutReason::kNone);
  tracker.Record(0, TechniqueKind::kQuant8, true, DropoutReason::kNone);
  tracker.Record(1, TechniqueKind::kQuant8, false, DropoutReason::kNone);
  tracker.Record(1, TechniqueKind::kPrune50, true, DropoutReason::kNone);
  const auto& per = tracker.PerTechnique();
  EXPECT_EQ(per.at(TechniqueKind::kQuant8).success, 2u);
  EXPECT_EQ(per.at(TechniqueKind::kQuant8).failure, 1u);
  EXPECT_EQ(per.at(TechniqueKind::kPrune50).success, 1u);
  EXPECT_EQ(per.at(TechniqueKind::kPrune50).failure, 0u);
  EXPECT_EQ(per.count(TechniqueKind::kPartial75), 0u);
}

TEST(ParticipationTrackerTest, AttributesDropoutsByTechniqueAndReason) {
  ParticipationTracker tracker(6);
  tracker.Record(0, TechniqueKind::kQuant8, false, DropoutReason::kCrashed);
  tracker.Record(1, TechniqueKind::kQuant8, false, DropoutReason::kCrashed);
  tracker.Record(2, TechniqueKind::kQuant8, false, DropoutReason::kTransferTimedOut);
  tracker.Record(3, TechniqueKind::kQuant8, true, DropoutReason::kNone);
  tracker.Record(4, TechniqueKind::kPrune50, false, DropoutReason::kCorrupted);
  // kNone records no attribution (reason unknown).
  tracker.Record(5, TechniqueKind::kPrune50, false, DropoutReason::kNone);

  EXPECT_EQ(DropoutCount(tracker, TechniqueKind::kQuant8, DropoutReason::kCrashed), 2u);
  EXPECT_EQ(DropoutCount(tracker, TechniqueKind::kQuant8, DropoutReason::kTransferTimedOut), 1u);
  EXPECT_EQ(DropoutCount(tracker, TechniqueKind::kPrune50, DropoutReason::kCorrupted), 1u);
  EXPECT_EQ(DropoutCount(tracker, TechniqueKind::kPrune50, DropoutReason::kCrashed), 0u);
  // Completions never attribute, so kQuant8 has exactly two reasons on file.
  const auto& by_technique = tracker.DropoutsByTechnique();
  ASSERT_EQ(by_technique.count(TechniqueKind::kQuant8), 1u);
  EXPECT_EQ(by_technique.at(TechniqueKind::kQuant8).size(), 2u);
}

TEST(ParticipationTrackerTest, AttributionRoundTripsThroughCheckpoint) {
  ParticipationTracker tracker(3);
  tracker.Record(0, TechniqueKind::kQuant8, false, DropoutReason::kOutOfMemory);
  tracker.Record(1, TechniqueKind::kPartial75, false, DropoutReason::kRejected);
  tracker.Record(2, TechniqueKind::kPartial75, true, DropoutReason::kNone);

  CheckpointWriter w;
  tracker.SaveState(w);
  ParticipationTracker loaded(3);
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(loaded.DropoutsByTechnique(), tracker.DropoutsByTechnique());
  EXPECT_EQ(DropoutCount(loaded, TechniqueKind::kQuant8, DropoutReason::kOutOfMemory), 1u);
  EXPECT_EQ(loaded.TotalCompleted(), 1u);
  CheckpointWriter again;
  loaded.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

// A history count read from a damaged archive is bounded by the bytes left:
// a count of 2^60 fails the reader instead of reserving for it.
TEST(AggregationTrackerTest, HugeHistoryCountFailsTheReader) {
  CheckpointWriter w;
  w.Size(size_t{1} << 60);
  w.Size(1);
  CheckpointReader r(w.buffer());
  AggregationTracker tracker;
  Io(r, tracker);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(tracker.history.size(), 0u);
}

}  // namespace
}  // namespace floatfl
