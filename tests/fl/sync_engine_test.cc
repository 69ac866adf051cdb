#include "src/fl/sync_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/float_controller.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 30;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 123;
  return config;
}

TEST(SyncEngineTest, AccountingIsConsistent) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_EQ(result.total_selected, result.total_completed + result.total_dropouts);
  EXPECT_LE(result.total_selected, config.rounds * config.clients_per_round);
  EXPECT_EQ(result.accuracy_history.size(), config.rounds);
  EXPECT_EQ(result.dropout_breakdown.Total(), result.total_dropouts);
  EXPECT_EQ(result.per_client_selected.size(), config.num_clients);
  size_t selected_sum = 0;
  for (size_t s : result.per_client_selected) {
    selected_sum += s;
  }
  EXPECT_EQ(selected_sum, result.total_selected);
}

TEST(SyncEngineTest, AccuraciesWithinBounds) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_GE(result.accuracy_bottom10, 0.0);
  EXPECT_LE(result.accuracy_bottom10, result.accuracy_avg + 1e-12);
  EXPECT_LE(result.accuracy_avg, result.accuracy_top10 + 1e-12);
  EXPECT_LE(result.accuracy_top10, 1.0);
  // Accuracy history is non-decreasing (saturating convergence curve).
  for (size_t i = 1; i < result.accuracy_history.size(); ++i) {
    EXPECT_GE(result.accuracy_history[i], result.accuracy_history[i - 1] - 1e-12);
  }
}

TEST(SyncEngineTest, NoDropoutModeCompletesEveryone) {
  ExperimentConfig config = SmallConfig();
  config.assume_no_dropouts = true;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_EQ(result.total_dropouts, 0u);
  EXPECT_EQ(result.total_completed, result.total_selected);
}

TEST(SyncEngineTest, DeterministicForSeed) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector s1(config.seed);
  SyncEngine e1(config, &s1, nullptr);
  const ExperimentResult r1 = e1.Run();
  RandomSelector s2(config.seed);
  SyncEngine e2(config, &s2, nullptr);
  const ExperimentResult r2 = e2.Run();
  EXPECT_EQ(r1.total_completed, r2.total_completed);
  EXPECT_EQ(r1.total_dropouts, r2.total_dropouts);
  EXPECT_DOUBLE_EQ(r1.accuracy_avg, r2.accuracy_avg);
  EXPECT_DOUBLE_EQ(r1.wall_clock_hours, r2.wall_clock_hours);
}

TEST(SyncEngineTest, WallClockAdvances) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_GT(result.wall_clock_hours, 0.0);
}

TEST(SyncEngineTest, StaticAggressivePolicyReducesDeadlineDropouts) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector s1(config.seed);
  SyncEngine vanilla(config, &s1, nullptr);
  const ExperimentResult base = vanilla.Run();

  RandomSelector s2(config.seed);
  StaticPolicy policy(TechniqueKind::kPrune75);
  SyncEngine accelerated(config, &s2, &policy);
  const ExperimentResult fast = accelerated.Run();

  EXPECT_LT(fast.dropout_breakdown.missed_deadline, base.dropout_breakdown.missed_deadline);
  EXPECT_GT(fast.total_completed, base.total_completed);
}

TEST(SyncEngineTest, SimulateClientChargesPartialCostsOnDeadlineMiss) {
  ExperimentConfig config = SmallConfig();
  config.deadline_s = 1.0;  // absurdly tight: everyone misses
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  Client& client = engine.clients()[0];
  // Make sure the client is available so the miss is deadline-driven.
  double t = 0.0;
  while (!client.availability().IsAvailableAt(t)) {
    t += 600.0;
  }
  const ClientRoundOutcome outcome =
      engine.SimulateClient(client, engine.RoundsRun(), t, TechniqueKind::kNone, FaultDecision());
  if (outcome.reason == DropoutReason::kMissedDeadline) {
    EXPECT_FALSE(outcome.completed);
    EXPECT_GT(outcome.deadline_diff, 0.0);
    EXPECT_LE(outcome.time_spent_s, 1.0 + 1e-9);
  } else {
    // Only OOM can preempt the deadline check for an available client.
    EXPECT_EQ(outcome.reason, DropoutReason::kOutOfMemory);
  }
}

// First time at or after `t` at which `client` is (or is not) available.
double FindAvailability(Client& client, bool available, double t = 0.0) {
  while (client.availability().IsAvailableAt(t) != available) {
    t = client.availability().PeriodEndAfter(t);
  }
  return t;
}

// A blackout pre-empts everything, even for a client that is online: the
// task push never happens, so nothing is charged.
TEST(SyncEngineTest, SimulateClientBlackoutChargesNothing) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  Client& client = engine.clients()[0];
  const double t = FindAvailability(client, true);
  FaultDecision fault;
  fault.blackout = true;
  const ClientRoundOutcome outcome =
      engine.SimulateClient(client, 0, t, TechniqueKind::kNone, fault);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.reason, DropoutReason::kUnavailable);
  EXPECT_EQ(outcome.costs.train_time_s, 0.0);
  EXPECT_EQ(outcome.costs.comm_time_s, 0.0);
  EXPECT_EQ(outcome.costs.peak_memory_mb, 0.0);
  EXPECT_EQ(outcome.time_spent_s, 0.0);
}

// A client selected while offline never trains; only the download leg of
// the comm budget is charged.
TEST(SyncEngineTest, SimulateClientOfflineChargesDownloadOnly) {
  const ExperimentConfig config = SmallConfig();
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  Client& client = engine.clients()[0];
  const double t = FindAvailability(client, false);
  const ClientRoundOutcome outcome =
      engine.SimulateClient(client, 0, t, TechniqueKind::kNone, FaultDecision());
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.reason, DropoutReason::kUnavailable);
  EXPECT_EQ(outcome.costs.train_time_s, 0.0);
  EXPECT_EQ(outcome.costs.peak_memory_mb, 0.0);
  EXPECT_GT(outcome.costs.comm_time_s, 0.0);
  EXPECT_EQ(outcome.time_spent_s, outcome.costs.comm_time_s);
}

// Injected faults still apply with natural dropouts switched off. Each case
// is compared with a fault-free call for the same client and instant.
ClientRoundOutcome SimulateWith(SyncEngine& engine, const FaultDecision& fault) {
  Client& client = engine.clients()[1];
  const double t = FindAvailability(client, true, 3600.0);
  return engine.SimulateClient(client, 0, t, TechniqueKind::kNone, fault);
}

TEST(SyncEngineTest, SimulateClientCrashChargesWorkUpToTheCrash) {
  ExperimentConfig config = SmallConfig();
  config.assume_no_dropouts = true;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ClientRoundOutcome clean = SimulateWith(engine, FaultDecision());
  ASSERT_TRUE(clean.completed);
  FaultDecision fault;
  fault.crash = true;
  fault.crash_fraction = 0.25;
  const ClientRoundOutcome crashed = SimulateWith(engine, fault);
  EXPECT_FALSE(crashed.completed);
  EXPECT_EQ(crashed.reason, DropoutReason::kCrashed);
  EXPECT_EQ(crashed.costs.train_time_s, clean.costs.train_time_s * 0.25);
  EXPECT_EQ(crashed.costs.comm_time_s, clean.costs.comm_time_s * 0.25);
  EXPECT_EQ(crashed.time_spent_s,
            std::min(0.25 * clean.costs.total_time_s, engine.CurrentRoundDeadline()));
}

TEST(SyncEngineTest, SimulateClientCorruptionCompletesWithFullCosts) {
  ExperimentConfig config = SmallConfig();
  config.assume_no_dropouts = true;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ClientRoundOutcome clean = SimulateWith(engine, FaultDecision());
  FaultDecision fault;
  fault.corrupt = true;
  fault.corrupt_kind = 2;
  const ClientRoundOutcome corrupted = SimulateWith(engine, fault);
  EXPECT_TRUE(corrupted.completed);
  EXPECT_TRUE(corrupted.corrupted);
  EXPECT_EQ(corrupted.corrupt_kind, 2u);
  EXPECT_FALSE(corrupted.byzantine);
  EXPECT_EQ(corrupted.costs.train_time_s, clean.costs.train_time_s);
  EXPECT_EQ(corrupted.costs.comm_time_s, clean.costs.comm_time_s);
  EXPECT_EQ(corrupted.time_spent_s, clean.time_spent_s);
}

TEST(SyncEngineTest, SimulateClientByzantineCompletesUncorrupted) {
  ExperimentConfig config = SmallConfig();
  config.assume_no_dropouts = true;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ClientRoundOutcome clean = SimulateWith(engine, FaultDecision());
  FaultDecision fault;
  fault.byzantine = true;
  const ClientRoundOutcome attacker = SimulateWith(engine, fault);
  EXPECT_TRUE(attacker.completed);
  EXPECT_TRUE(attacker.byzantine);
  EXPECT_FALSE(attacker.corrupted);
  EXPECT_EQ(attacker.costs.train_time_s, clean.costs.train_time_s);
  EXPECT_EQ(attacker.time_spent_s, clean.time_spent_s);
}

// Golden regression trace: a pinned-seed sequential run must reproduce this
// per-round accuracy sequence exactly. The values were generated with
// num_threads = 1 at the commit that introduced parallel client execution;
// any future refactor that silently changes engine semantics — reordered
// RNG draws, different reduction order, altered trace stepping — breaks
// this test rather than silently shifting every result.
TEST(SyncEngineTest, GoldenTraceWithPinnedSeed) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 20;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = 20240806;
  config.num_threads = 1;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const ExperimentResult result = engine.Run();

  const std::vector<double> golden = {
      0.023726146131299336,
      0.03155351570851421,
      0.040390104969462257,
      0.047148326615817117,
      0.049436242113164622,
      0.059319844509264065,
      0.066732168413341078,
      0.078308520940551102,
      0.090231834027522315,
      0.094810618976442745,
      0.10395095660264007,
      0.11406401020253172,
      0.12275955576952484,
      0.13459153684005365,
      0.14382882146823975,
      0.15451351854485654,
      0.1607748677350517,
      0.17167430040815551,
      0.17938397909434103,
      0.18364409026618866,
  };
  ASSERT_EQ(result.accuracy_history.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.accuracy_history[i], golden[i]) << "round " << i;
  }
  EXPECT_EQ(result.total_selected, 160u);
  EXPECT_EQ(result.total_completed, 96u);
  EXPECT_EQ(result.total_dropouts, 64u);
  EXPECT_DOUBLE_EQ(result.useful.compute_hours, 14.486483863826093);
  EXPECT_DOUBLE_EQ(result.useful.comm_hours, 4.4921630005470616);
  EXPECT_DOUBLE_EQ(result.wasted.compute_hours, 17.489680487989876);
  EXPECT_DOUBLE_EQ(result.wall_clock_hours, 7.60179653329633);
}

TEST(SyncEngineTest, FloatPolicyImprovesParticipation) {
  ExperimentConfig config = SmallConfig();
  config.rounds = 60;
  RandomSelector s1(config.seed);
  SyncEngine vanilla(config, &s1, nullptr);
  const ExperimentResult base = vanilla.Run();

  RandomSelector s2(config.seed);
  auto controller = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine with_float(config, &s2, controller.get());
  const ExperimentResult improved = with_float.Run();

  EXPECT_GT(improved.total_completed, base.total_completed);
  EXPECT_GT(improved.accuracy_avg, base.accuracy_avg);
}

}  // namespace
}  // namespace floatfl
