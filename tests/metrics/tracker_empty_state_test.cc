// Empty-state save/restore for the bookkeeping trackers (DESIGN.md §10,
// §14), mirroring tests/net/empty_state_test.cc: a tracker with nothing
// recorded must round-trip through its `Io` walk bit-exactly, and
// loading an empty snapshot over a dirty tracker must fully reset it — the
// degenerate "checkpoint taken before anything happened" case every
// freshly-constructed engine hits.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/sync_engine.h"
#include "src/metrics/admission_tracker.h"
#include "src/metrics/guard_tracker.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/salvage_tracker.h"
#include "src/metrics/topology_tracker.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

TEST(TrackerEmptyStateTest, TopologyTrackerZeroEventsRoundTrips) {
  const TopologyTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  TopologyTracker restored;
  ++restored.edge_crashes;  // dirty, then overwritten
  restored.reparented_clients += 4;
  restored.RecordPartial(true, 2, 1.5, 0.5);
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.edge_crashes, 0u);
  EXPECT_EQ(restored.edge_blackouts, 0u);
  EXPECT_EQ(restored.reparented_clients, 0u);
  EXPECT_EQ(restored.orphaned_clients, 0u);
  EXPECT_EQ(restored.partials_forwarded, 0u);
  EXPECT_EQ(restored.partials_lost, 0u);
  EXPECT_EQ(restored.tampered_partials, 0u);
  EXPECT_EQ(restored.tampered_rejections, 0u);
  EXPECT_EQ(restored.late_partials, 0u);
  EXPECT_EQ(restored.edge_agg_exclusions, 0u);
  EXPECT_EQ(restored.edge_transfer_attempts, 0u);
  EXPECT_EQ(restored.tier1_wire_mb, 0.0);
  EXPECT_EQ(restored.tier1_retransmitted_mb, 0.0);

  // Re-serialization is byte-identical: nothing drifted through the trip.
  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, GuardTrackerZeroEventsRoundTrips) {
  const GuardTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  GuardTracker restored;
  ++restored.snapshots;  // dirty, then overwritten
  ++restored.rollbacks;
  ++restored.safe_mode_rounds;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.snapshots, 0u);
  EXPECT_EQ(restored.nonfinite_triggers, 0u);
  EXPECT_EQ(restored.collapse_triggers, 0u);
  EXPECT_EQ(restored.stall_triggers, 0u);
  EXPECT_EQ(restored.WatchdogTriggers(), 0u);
  EXPECT_EQ(restored.rollbacks, 0u);
  EXPECT_EQ(restored.masked_actions, 0u);
  EXPECT_EQ(restored.quarantine_openings, 0u);
  EXPECT_EQ(restored.rejected_rewards, 0u);
  EXPECT_EQ(restored.safe_mode_rounds, 0u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, RecoveryTrackerZeroEventsRoundTrips) {
  const RecoveryTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  RecoveryTracker restored;
  ++restored.restarts;  // dirty, then overwritten
  restored.archives_skipped += 2;
  restored.rounds_replayed += 5;
  ++restored.checkpoints_written;
  ++restored.checkpoints_failed;
  restored.checkpoints_collected += 3;
  ++restored.temps_swept;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.restarts, 0u);
  EXPECT_EQ(restored.archives_skipped, 0u);
  EXPECT_EQ(restored.rounds_replayed, 0u);
  EXPECT_EQ(restored.checkpoints_written, 0u);
  EXPECT_EQ(restored.checkpoints_failed, 0u);
  EXPECT_EQ(restored.checkpoints_collected, 0u);
  EXPECT_EQ(restored.temps_swept, 0u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, RecoveryTrackerAccumulatedStateRoundTrips) {
  // The non-empty direction: a tracker carrying totals from two process
  // lives survives the trip exactly (it rides inside engine checkpoints, so
  // this is what makes the counters cumulative across kills).
  RecoveryTracker source;
  ++source.restarts;
  ++source.restarts;
  ++source.archives_skipped;
  source.rounds_replayed += 7;
  ++source.checkpoints_written;
  source.checkpoints_collected += 2;
  source.temps_swept += 3;
  CheckpointWriter w;
  Io(w, source);

  RecoveryTracker restored;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.restarts, 2u);
  EXPECT_EQ(restored.archives_skipped, 1u);
  EXPECT_EQ(restored.rounds_replayed, 7u);
  EXPECT_EQ(restored.checkpoints_written, 1u);
  EXPECT_EQ(restored.checkpoints_failed, 0u);
  EXPECT_EQ(restored.checkpoints_collected, 2u);
  EXPECT_EQ(restored.temps_swept, 3u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, AdmissionTrackerZeroEventsRoundTrips) {
  const AdmissionTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  AdmissionTracker restored;
  restored.admitted += 3;  // dirty, then overwritten
  ++restored.deduplicated;
  ++restored.shed;
  ++restored.rate_limited;
  ++restored.replay_rejected;
  restored.RecordQueueDepth(7);
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.admitted, 0u);
  EXPECT_EQ(restored.deduplicated, 0u);
  EXPECT_EQ(restored.shed, 0u);
  EXPECT_EQ(restored.rate_limited, 0u);
  EXPECT_EQ(restored.replay_rejected, 0u);
  EXPECT_EQ(restored.peak_queue_depth, 0u);
  EXPECT_EQ(restored.TotalRejected(), 0u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, AdmissionTrackerAccumulatedStateRoundTrips) {
  AdmissionTracker source;
  source.admitted += 12;
  ++source.deduplicated;
  ++source.deduplicated;
  ++source.shed;
  ++source.rate_limited;
  ++source.rate_limited;
  ++source.rate_limited;
  ++source.replay_rejected;
  source.RecordQueueDepth(9);
  source.RecordQueueDepth(4);  // peak sticks at the maximum seen
  CheckpointWriter w;
  Io(w, source);

  AdmissionTracker restored;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.admitted, 12u);
  EXPECT_EQ(restored.deduplicated, 2u);
  EXPECT_EQ(restored.shed, 1u);
  EXPECT_EQ(restored.rate_limited, 3u);
  EXPECT_EQ(restored.replay_rejected, 1u);
  EXPECT_EQ(restored.peak_queue_depth, 9u);
  EXPECT_EQ(restored.TotalRejected(), 7u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, SalvageTrackerZeroEventsRoundTrips) {
  const SalvageTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  SalvageTracker restored;
  restored.RecordPartialSalvaged(12, 0.5, 1.25);  // dirty, then overwritten
  ++restored.partials_below_min;
  ++restored.partials_rejected;
  restored.backups_planned += 3;
  ++restored.backups_won;
  ++restored.backups_redundant;
  ++restored.deadline_misses_averted;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.partials_salvaged, 0u);
  EXPECT_EQ(restored.partials_below_min, 0u);
  EXPECT_EQ(restored.partials_rejected, 0u);
  EXPECT_EQ(restored.salvaged_steps, 0u);
  EXPECT_EQ(restored.salvaged_fraction_sum, 0.0);
  EXPECT_EQ(restored.salvaged_progress_mb, 0.0);
  EXPECT_EQ(restored.backups_planned, 0u);
  EXPECT_EQ(restored.backups_won, 0u);
  EXPECT_EQ(restored.backups_redundant, 0u);
  EXPECT_EQ(restored.deadline_misses_averted, 0u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, SalvageTrackerAccumulatedStateRoundTrips) {
  SalvageTracker source;
  source.RecordPartialSalvaged(9, 0.75, 0.0);
  source.RecordPartialSalvaged(4, 0.3125, 2.5);
  ++source.partials_below_min;
  ++source.partials_rejected;
  ++source.partials_rejected;
  source.backups_planned += 5;
  ++source.backups_won;
  ++source.backups_won;
  ++source.backups_redundant;
  ++source.deadline_misses_averted;
  CheckpointWriter w;
  Io(w, source);

  SalvageTracker restored;
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.partials_salvaged, 2u);
  EXPECT_EQ(restored.partials_below_min, 1u);
  EXPECT_EQ(restored.partials_rejected, 2u);
  EXPECT_EQ(restored.salvaged_steps, 13u);
  EXPECT_EQ(restored.salvaged_fraction_sum, 0.75 + 0.3125);
  EXPECT_EQ(restored.salvaged_progress_mb, 2.5);
  EXPECT_EQ(restored.backups_planned, 5u);
  EXPECT_EQ(restored.backups_won, 2u);
  EXPECT_EQ(restored.backups_redundant, 1u);
  EXPECT_EQ(restored.deadline_misses_averted, 1u);

  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(TrackerEmptyStateTest, CheckpointFormatV9RefusesV8Archives) {
  // The graceful-degradation layer extended every engine payload and both
  // config fingerprints, so the checkpoint format is v9 and a v8 archive
  // (same magic, older layout) must be refused instead of misparsed.
  ASSERT_EQ(Checkpointer::kVersion, 9u);
  const std::string path = testing::TempDir() + "/v8_refusal.ckpt";

  ExperimentConfig config;
  config.num_clients = 10;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.seed = 3;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  // The untouched archive restores fine.
  RandomSelector fresh_selector(config.seed);
  SyncEngine restored(config, &fresh_selector, nullptr);
  EXPECT_TRUE(Checkpointer::Restore(path, restored));

  // Patch the version word (bytes 4..7, after the magic) down to 8.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 8;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = 0;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RandomSelector v8_selector(config.seed);
  SyncEngine v8_target(config, &v8_selector, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, v8_target));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
