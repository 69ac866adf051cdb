#include "src/recovery/run_supervisor.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string FreshRingDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/supervisor_" + name;
  CheckpointRing ring(dir, 0);
  ring.SweepTemps();
  for (size_t round : ring.Rounds()) {
    std::remove(ring.PathFor(round).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

void WipeRing(const CheckpointRing& ring) {
  ring.SweepTemps();
  for (size_t round : ring.Rounds()) {
    std::remove(ring.PathFor(round).c_str());
  }
  ::rmdir(ring.dir().c_str());
}

ExperimentConfig SmallSyncConfig() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 10;
  config.seed = 11;
  config.num_threads = 1;
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.05;
  return config;
}

RealFlConfig SmallRealConfig() {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 7;
  config.num_threads = 1;
  return config;
}

VflConfig SmallVflConfig() {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 31;
  return config;
}

template <typename Engine>
std::string SerializedState(const Engine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

// --- Default-off strict no-op: a disabled supervisor is a pass-through on
// every engine, byte-identical to driving the engine's own loop.

TEST(RunSupervisorTest, DisabledSupervisorIsByteIdenticalOnSyncEngine) {
  const ExperimentConfig config = SmallSyncConfig();
  RandomSelector plain_sel(config.seed);
  SyncEngine plain(config, &plain_sel, nullptr);
  plain.Run();

  RandomSelector sup_sel(config.seed);
  SyncEngine supervised(config, &sup_sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(RecoveryConfig{}, supervised);
  EXPECT_EQ(supervisor.Recover(), 0u);
  EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);
  EXPECT_EQ(SerializedState(plain), SerializedState(supervised));
  EXPECT_EQ(supervisor.report().checkpoints_written, 0u);
  EXPECT_EQ(supervised.recovery_tracker().checkpoints_written, 0u);
}

TEST(RunSupervisorTest, DisabledSupervisorIsByteIdenticalOnAsyncEngine) {
  ExperimentConfig config = SmallSyncConfig();
  config.async_concurrency = 12;
  config.async_buffer = 4;
  AsyncEngine plain(config, nullptr);
  plain.Run();

  AsyncEngine supervised(config, nullptr);
  RunSupervisor<AsyncEngine> supervisor(RecoveryConfig{}, supervised);
  EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);
  EXPECT_EQ(SerializedState(plain), SerializedState(supervised));
}

TEST(RunSupervisorTest, DisabledSupervisorIsByteIdenticalOnRealEngine) {
  const RealFlConfig config = SmallRealConfig();
  const size_t rounds = 5;
  RealFlEngine plain(config);
  for (size_t r = 0; r < rounds; ++r) {
    plain.RunRound(TechniqueKind::kNone);
  }

  RealFlEngine supervised(config);
  RunSupervisor<RealFlEngine> supervisor(RecoveryConfig{}, supervised);
  EXPECT_EQ(supervisor.RecoverAndRun(rounds), SupervisedOutcome::kCompleted);
  EXPECT_EQ(SerializedState(plain), SerializedState(supervised));
}

TEST(RunSupervisorTest, DisabledSupervisorIsByteIdenticalOnVflEngine) {
  const VflConfig config = SmallVflConfig();
  const size_t epochs = 6;
  VflEngine plain(config);
  for (size_t e = 0; e < epochs; ++e) {
    plain.TrainEpoch(TechniqueKind::kNone);
  }

  VflEngine supervised(config);
  RunSupervisor<VflEngine> supervisor(RecoveryConfig{}, supervised);
  EXPECT_EQ(supervisor.RecoverAndRun(epochs), SupervisedOutcome::kCompleted);
  EXPECT_EQ(SerializedState(plain), SerializedState(supervised));
}

// --- Enabled supervision without faults: the durability machinery itself
// must not perturb the run.

TEST(RunSupervisorTest, EnabledSupervisionDoesNotChangeResults) {
  const ExperimentConfig config = SmallSyncConfig();
  RandomSelector plain_sel(config.seed);
  SyncEngine plain(config, &plain_sel, nullptr);
  const ExperimentResult expected = plain.Run();

  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("enabled_noop");
  recovery.checkpoint_every = 3;
  recovery.ring_depth = 2;
  RandomSelector sup_sel(config.seed);
  SyncEngine supervised(config, &sup_sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, supervised);
  EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);
  const ExperimentResult actual = supervised.Snapshot();

  // Training results identical; only the recovery accounting differs (the
  // supervised run wrote checkpoints, the plain one did not).
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.total_selected, actual.total_selected);
  EXPECT_EQ(expected.total_completed, actual.total_completed);
  EXPECT_EQ(expected.wall_clock_hours, actual.wall_clock_hours);
  EXPECT_EQ(actual.recovery_restarts, 0u);
  EXPECT_GT(actual.recovery_checkpoints_written, 0u);
  WipeRing(supervisor.ring());
}

TEST(RunSupervisorTest, CadenceAndFinalRoundArchivesWithRetention) {
  const ExperimentConfig config = SmallSyncConfig();
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("cadence");
  recovery.checkpoint_every = 3;
  recovery.ring_depth = 2;
  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);
  // Saves at rounds 3, 6, 9 (cadence) and 10 (final); retention keeps the
  // newest ring_depth = 2.
  EXPECT_EQ(supervisor.ring().Rounds(), (std::vector<size_t>{9, 10}));
  EXPECT_EQ(supervisor.report().checkpoints_written, 4u);
  EXPECT_EQ(supervisor.report().checkpoints_collected, 2u);
  EXPECT_EQ(engine.recovery_tracker().checkpoints_written, 4u);
  WipeRing(supervisor.ring());
}

// --- Recovery: a fresh process restores the newest good archive and
// finishes bit-identically; a corrupt newest archive falls back to an older
// one.

TEST(RunSupervisorTest, RecoverRestoresNewestArchiveAndFinishesBitIdentical) {
  const ExperimentConfig config = SmallSyncConfig();
  RandomSelector golden_sel(config.seed);
  SyncEngine golden(config, &golden_sel, nullptr);
  golden.Run();

  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("recover_basic");
  recovery.checkpoint_every = 2;
  recovery.ring_depth = 3;

  // Life 1: run 6 of 10 rounds (archives at 2, 4, 6), then "die".
  {
    RandomSelector sel(config.seed);
    SyncEngine engine(config, &sel, nullptr);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    supervisor.Recover();
    EXPECT_EQ(supervisor.Run(6), SupervisedOutcome::kCompleted);
  }

  // Life 2: a fresh engine recovers at round 6 and finishes.
  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  EXPECT_EQ(supervisor.Recover(), 6u);
  EXPECT_TRUE(supervisor.report().recovered);
  EXPECT_EQ(supervisor.report().archives_skipped, 0u);
  EXPECT_EQ(supervisor.Run(config.rounds), SupervisedOutcome::kCompleted);

  const ExperimentResult actual = engine.Snapshot();
  const ExperimentResult expected = golden.Snapshot();
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.wall_clock_hours, actual.wall_clock_hours);
  EXPECT_EQ(actual.recovery_restarts, 1u);
  WipeRing(supervisor.ring());
}

TEST(RunSupervisorTest, CorruptNewestArchiveFallsBackToOlderOne) {
  const ExperimentConfig config = SmallSyncConfig();
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("recover_fallback");
  recovery.checkpoint_every = 2;
  recovery.ring_depth = 3;

  {
    RandomSelector sel(config.seed);
    SyncEngine engine(config, &sel, nullptr);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    EXPECT_EQ(supervisor.RecoverAndRun(6), SupervisedOutcome::kCompleted);
  }

  // Flip a byte in the middle of the newest archive (round 6): its payload
  // hash no longer verifies, so recovery must fall back to round 4.
  CheckpointRing ring(recovery.dir, recovery.ring_depth);
  const std::string newest = ring.PathFor(6);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(64);
    f.write(&byte, 1);
  }

  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  EXPECT_EQ(supervisor.Recover(), 4u);
  EXPECT_TRUE(supervisor.report().recovered);
  EXPECT_EQ(supervisor.report().archives_skipped, 1u);
  // Rounds 5 and 6 were provably reached (the round-6 stamp) but their work
  // was lost with the corrupt archive: two rounds to replay.
  EXPECT_EQ(supervisor.report().rounds_replayed, 2u);
  EXPECT_EQ(engine.recovery_tracker().archives_skipped, 1u);
  WipeRing(supervisor.ring());
}

TEST(RunSupervisorTest, AllArchivesCorruptMeansFreshStart) {
  const ExperimentConfig config = SmallSyncConfig();
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("recover_all_corrupt");
  recovery.checkpoint_every = 4;
  recovery.ring_depth = 3;

  {
    RandomSelector sel(config.seed);
    SyncEngine engine(config, &sel, nullptr);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    EXPECT_EQ(supervisor.RecoverAndRun(8), SupervisedOutcome::kCompleted);
  }

  CheckpointRing ring(recovery.dir, recovery.ring_depth);
  for (size_t round : ring.Rounds()) {
    std::ofstream out(ring.PathFor(round), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  EXPECT_EQ(supervisor.Recover(), 0u);
  EXPECT_FALSE(supervisor.report().recovered);
  EXPECT_EQ(supervisor.report().archives_skipped, 2u);
  // A fresh start still finishes the run correctly from round 0.
  EXPECT_EQ(supervisor.Run(8), SupervisedOutcome::kCompleted);
  EXPECT_EQ(engine.RoundsRun(), 8u);
  WipeRing(supervisor.ring());
}

// --- Disk faults are survived, counted, and do not perturb training.

TEST(RunSupervisorTest, DiskFaultIsCountedAndSurvived) {
  const ExperimentConfig config = SmallSyncConfig();
  RandomSelector golden_sel(config.seed);
  SyncEngine golden(config, &golden_sel, nullptr);
  const ExperimentResult expected = golden.Run();

  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = FreshRingDir("disk_fault");
  recovery.checkpoint_every = 3;
  recovery.ring_depth = 2;

  CrashPlanConfig plan_config;
  plan_config.directed = true;
  plan_config.trigger_kill = false;  // fault-only: no kill anywhere
  plan_config.trigger_round = 3;     // the first save attempt
  plan_config.trigger_disk_fault = DiskFault::kShortWrite;
  CrashPlan plan(plan_config);

  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  RunSupervisor<SyncEngine> supervisor(recovery, engine);
  supervisor.SetCrashPlan(&plan);
  EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);

  EXPECT_EQ(supervisor.report().checkpoints_failed, 1u);
  EXPECT_EQ(supervisor.report().checkpoints_written, 3u);  // rounds 6, 9, 10
  const ExperimentResult actual = engine.Snapshot();
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(actual.recovery_checkpoints_failed, 1u);
  WipeRing(supervisor.ring());
}

// --- Thread-count invariance: supervised archives and results are
// bit-identical across num_threads, like everything else in the house.

TEST(RunSupervisorTest, SupervisedRunIsThreadCountInvariant) {
  std::string reference_state;
  std::string reference_archive;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ExperimentConfig config = SmallSyncConfig();
    config.num_threads = threads;
    RecoveryConfig recovery;
    recovery.enabled = true;
    recovery.dir = FreshRingDir("threads_" + std::to_string(threads));
    recovery.checkpoint_every = 5;
    recovery.ring_depth = 2;
    RandomSelector sel(config.seed);
    SyncEngine engine(config, &sel, nullptr);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    EXPECT_EQ(supervisor.RecoverAndRun(config.rounds), SupervisedOutcome::kCompleted);
    const std::string state = SerializedState(engine);
    std::ifstream in(supervisor.ring().PathFor(config.rounds), std::ios::binary);
    const std::string archive{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    ASSERT_FALSE(archive.empty());
    if (reference_state.empty()) {
      reference_state = state;
      reference_archive = archive;
    } else {
      EXPECT_EQ(state, reference_state) << "num_threads=" << threads;
      EXPECT_EQ(archive, reference_archive) << "num_threads=" << threads;
    }
    WipeRing(supervisor.ring());
  }
}

// --- Config validation: an enabled config with invalid knobs aborts.

TEST(RunSupervisorDeathTest, EnabledConfigRequiresDirCadenceAndDepth) {
  RecoveryConfig no_dir;
  no_dir.enabled = true;
  no_dir.checkpoint_every = 2;
  no_dir.ring_depth = 2;
  EXPECT_DEATH(ValidateRecoveryConfig(no_dir), "dir");

  RecoveryConfig no_cadence;
  no_cadence.enabled = true;
  no_cadence.dir = "/tmp/x";
  no_cadence.checkpoint_every = 0;
  EXPECT_DEATH(ValidateRecoveryConfig(no_cadence), "checkpoint_every");

  RecoveryConfig no_depth;
  no_depth.enabled = true;
  no_depth.dir = "/tmp/x";
  no_depth.ring_depth = 0;
  EXPECT_DEATH(ValidateRecoveryConfig(no_depth), "ring_depth");
}

}  // namespace
}  // namespace floatfl
