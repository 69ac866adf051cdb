#include "src/fl/async_engine.h"

#include <gtest/gtest.h>

#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig SmallAsyncConfig() {
  ExperimentConfig config;
  config.num_clients = 60;
  config.clients_per_round = 10;
  config.rounds = 25;
  config.async_concurrency = 30;
  config.async_buffer = 10;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 321;
  return config;
}

TEST(AsyncEngineTest, ReachesConfiguredAggregations) {
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine engine(config, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_EQ(result.accuracy_history.size(), config.rounds);
  // Each aggregation consumed `async_buffer` accepted updates.
  EXPECT_GE(result.total_completed, config.rounds * config.async_buffer);
}

TEST(AsyncEngineTest, AccountingIsConsistent) {
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine engine(config, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_EQ(result.total_selected, result.total_completed + result.total_dropouts);
  EXPECT_GT(result.wall_clock_hours, 0.0);
  EXPECT_GE(result.accuracy_avg, 0.0);
  EXPECT_LE(result.accuracy_top10, 1.0);
}

TEST(AsyncEngineTest, DeterministicForSeed) {
  const ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine e1(config, nullptr);
  AsyncEngine e2(config, nullptr);
  const ExperimentResult r1 = e1.Run();
  const ExperimentResult r2 = e2.Run();
  EXPECT_EQ(r1.total_completed, r2.total_completed);
  EXPECT_DOUBLE_EQ(r1.accuracy_avg, r2.accuracy_avg);
  EXPECT_DOUBLE_EQ(r1.wall_clock_hours, r2.wall_clock_hours);
}

TEST(AsyncEngineTest, FasterWallClockThanSyncButMoreResources) {
  // The Figure-2b trade-off at small scale: async aggregations complete in
  // less wall-clock time than the synchronous engine's deadline-bound
  // rounds, while consuming more total client resources.
  ExperimentConfig config = SmallAsyncConfig();
  AsyncEngine async_engine(config, nullptr);
  const ExperimentResult async_result = async_engine.Run();

  RandomSelector selector(config.seed);
  SyncEngine sync_engine(config, &selector, nullptr);
  const ExperimentResult sync_result = sync_engine.Run();

  EXPECT_LT(async_result.wall_clock_hours, sync_result.wall_clock_hours);
  const double async_compute =
      async_result.useful.compute_hours + async_result.wasted.compute_hours;
  const double sync_compute =
      sync_result.useful.compute_hours + sync_result.wasted.compute_hours;
  EXPECT_GT(async_compute, sync_compute);
}

TEST(AsyncEngineTest, NoDropoutModeHasNoWaste) {
  ExperimentConfig config = SmallAsyncConfig();
  config.assume_no_dropouts = true;
  AsyncEngine engine(config, nullptr);
  const ExperimentResult result = engine.Run();
  // Staleness discards can still occur, but availability/OOM dropouts can't.
  EXPECT_EQ(result.dropout_breakdown.out_of_memory, 0u);
  EXPECT_EQ(result.dropout_breakdown.departed, 0u);
}

}  // namespace
}  // namespace floatfl

namespace floatfl {
namespace {

TEST(AsyncEngineTest, StaleDiscardsCountedAsMissedDeadline) {
  // A tiny buffer with high concurrency forces versions to advance quickly,
  // so slow clients accumulate staleness; any completed-but-too-stale update
  // must appear in the missed_deadline bucket, never as accepted work.
  ExperimentConfig config;
  config.num_clients = 60;
  config.rounds = 40;
  config.async_concurrency = 50;
  config.async_buffer = 2;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 777;
  AsyncEngine engine(config, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
}

TEST(AsyncEngineTest, OomPeakMemoryIsWasteOnSyncButZeroOnFedBuff) {
  // A ResNet-50 batch of 1000 needs about 100 GB: every client runs out of
  // memory. Sync charges the OOM's peak memory as waste; FedBuff books it as
  // zero, the one difference the shared client simulation keeps.
  ExperimentConfig config = SmallAsyncConfig();
  config.model = ModelId::kResNet50;
  config.batch_size = 1000;

  RandomSelector selector(config.seed);
  SyncEngine sync_engine(config, &selector, nullptr);
  for (size_t round = 0; round < 3; ++round) {
    sync_engine.RunRound(round);
  }
  const ExperimentResult sync_result = sync_engine.Snapshot();
  EXPECT_GT(sync_result.dropout_breakdown.out_of_memory, 0u);
  EXPECT_EQ(sync_result.total_completed, 0u);
  EXPECT_GT(sync_result.wasted.memory_tb, 0.0);

  AsyncEngine async_engine(config, nullptr);
  for (size_t step = 0; step < 60; ++step) {
    async_engine.StepOnce();
  }
  const ExperimentResult async_result = async_engine.Snapshot();
  EXPECT_GT(async_result.dropout_breakdown.out_of_memory, 0u);
  EXPECT_EQ(async_result.dropout_breakdown.out_of_memory, async_result.total_selected);
  EXPECT_GT(async_result.wasted.comm_hours, 0.0);
  EXPECT_EQ(async_result.wasted.memory_tb, 0.0);
}

TEST(AsyncEngineTest, FedBuffNeverMissesADeadlineOrFindsAClientOffline) {
  // Crashes, blackout windows and a lossy transport. Under a round deadline
  // they yield missed deadlines and unreachable clients; FedBuff's budget is
  // unbounded and its launcher skips blackouts and offline clients, so the
  // shared simulation never returns either reason to it. Stale discards,
  // the async engine's own source of kMissedDeadline, are switched off.
  ExperimentConfig config = SmallAsyncConfig();
  config.faults.crash_prob = 0.2;
  config.faults.blackout_period_s = 20000.0;
  config.faults.blackout_duration_s = 4000.0;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 2;
  config.admission.async_max_staleness = 1e9;

  RandomSelector selector(config.seed);
  SyncEngine sync_engine(config, &selector, nullptr);
  const ExperimentResult sync_result = sync_engine.Run();
  EXPECT_GT(sync_result.dropout_breakdown.missed_deadline, 0u);
  EXPECT_GT(sync_result.dropout_breakdown.unavailable, 0u);

  AsyncEngine async_engine(config, nullptr);
  const ExperimentResult async_result = async_engine.Run();
  EXPECT_GT(async_result.dropout_breakdown.crashed, 0u);
  EXPECT_GT(async_result.dropout_breakdown.transfer_timed_out +
                async_result.dropout_breakdown.departed,
            0u);
  EXPECT_EQ(async_result.dropout_breakdown.missed_deadline, 0u);
  EXPECT_EQ(async_result.dropout_breakdown.unavailable, 0u);
}

}  // namespace
}  // namespace floatfl
