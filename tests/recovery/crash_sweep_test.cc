// The kill-anywhere acceptance sweep (DESIGN.md §14): for each of the four
// engines and each named crashpoint, a run soft-killed at that site and
// relaunched from the ring must finish with training state bit-identical to
// an uninterrupted golden. Soft kills stage the disk byte-for-byte as a real
// kill would (tests/recovery/crash_plan_test.cc proves that per-window) and
// unwind instead of dying, so the whole sweep runs in-process and
// sanitizer-clean; the fork/_Exit path is proven by kill_harness_test.cc.
#include <gtest/gtest.h>

#include <string>

#include "src/recovery/crash_plan.h"
#include "src/recovery/run_supervisor.h"
#include "tests/recovery/engine_harness.h"

namespace floatfl {
namespace {

using testutil::AsyncHarness;
using testutil::RealHarness;
using testutil::SyncHarness;
using testutil::TrainingState;
using testutil::VflHarness;
using testutil::WipeRingDir;

template <typename Harness>
void RunCrashSweep() {
  Harness harness;
  const size_t total = Harness::kTotalRounds;

  // Uninterrupted golden, driven through a disabled supervisor (the strict
  // no-op pass-through) so both sides use the same default step.
  harness.Fresh();
  {
    RunSupervisor<typename Harness::Engine> golden_supervisor(RecoveryConfig{}, harness.get());
    ASSERT_EQ(golden_supervisor.RecoverAndRun(total), SupervisedOutcome::kCompleted);
  }
  const std::string golden = TrainingState(harness.get());

  for (size_t site_index = 0; site_index < kNumCrashSites; ++site_index) {
    const CrashSite site = static_cast<CrashSite>(site_index);
    SCOPED_TRACE(std::string(Harness::kName) + " killed at " + CrashSiteName(site));

    RecoveryConfig recovery;
    recovery.enabled = true;
    recovery.dir = testing::TempDir() + "/sweep_" + Harness::kName + "_" + CrashSiteName(site);
    recovery.checkpoint_every = 2;
    recovery.ring_depth = 3;
    WipeRingDir(recovery.dir);

    CrashPlanConfig plan_config;
    plan_config.directed = true;
    plan_config.trigger_round = total / 2;
    plan_config.trigger_site = site;
    plan_config.hard_kill = false;  // soft: record + unwind, same disk bytes
    CrashPlan plan(plan_config);

    // Process lives: each one constructs everything from scratch, recovers
    // from the ring, and runs. The directed plan is one-shot, so exactly one
    // life dies and the next completes.
    size_t lives = 0;
    bool killed_once = false;
    for (; lives < 5; ++lives) {
      harness.Fresh();
      RunSupervisor<typename Harness::Engine> supervisor(recovery, harness.get());
      supervisor.SetCrashPlan(&plan);
      supervisor.Recover();
      if (supervisor.Run(total) == SupervisedOutcome::kCompleted) {
        break;
      }
      killed_once = true;
    }
    ASSERT_LT(lives, 5u);
    EXPECT_TRUE(killed_once);
    EXPECT_EQ(plan.KillsFired(), 1u);

    EXPECT_EQ(TrainingState(harness.get()), golden);
    // The surviving life restored from the ring, and the cumulative tracker
    // (serialized inside the engine) remembers it.
    EXPECT_EQ(harness.get().recovery_tracker().restarts, 1u);
    WipeRingDir(recovery.dir);
  }
}

TEST(CrashSweepTest, SyncEngineRecoversBitIdenticalFromEverySite) {
  RunCrashSweep<SyncHarness>();
}

TEST(CrashSweepTest, AsyncEngineRecoversBitIdenticalFromEverySite) {
  RunCrashSweep<AsyncHarness>();
}

TEST(CrashSweepTest, RealEngineRecoversBitIdenticalFromEverySite) {
  RunCrashSweep<RealHarness>();
}

TEST(CrashSweepTest, VflEngineRecoversBitIdenticalFromEverySite) {
  RunCrashSweep<VflHarness>();
}

// Stochastic endurance: keyed random kills at a high rate, as many lives as
// it takes — the run must still converge to the golden bit-for-bit.
TEST(CrashSweepTest, StochasticKillsStillConvergeToGolden) {
  SyncHarness harness;
  const size_t total = SyncHarness::kTotalRounds;
  harness.Fresh();
  {
    RunSupervisor<SyncEngine> golden_supervisor(RecoveryConfig{}, harness.get());
    ASSERT_EQ(golden_supervisor.RecoverAndRun(total), SupervisedOutcome::kCompleted);
  }
  const std::string golden = TrainingState(harness.get());

  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = testing::TempDir() + "/sweep_stochastic";
  recovery.checkpoint_every = 2;
  recovery.ring_depth = 3;
  WipeRingDir(recovery.dir);

  CrashPlanConfig plan_config;
  plan_config.seed = 99;
  plan_config.crash_prob = 0.05;
  plan_config.short_write_prob = 0.1;
  CrashPlan plan(plan_config);

  size_t lives = 0;
  for (; lives < 200; ++lives) {
    harness.Fresh();
    RunSupervisor<SyncEngine> supervisor(recovery, harness.get());
    supervisor.SetCrashPlan(&plan);
    supervisor.Recover();
    if (supervisor.Run(total) == SupervisedOutcome::kCompleted) {
      break;
    }
  }
  ASSERT_LT(lives, 200u);
  EXPECT_EQ(TrainingState(harness.get()), golden);
  // One kill per dead life; restarts can lag kills (a life killed before the
  // first archive existed leaves nothing to restore).
  EXPECT_EQ(plan.KillsFired(), lives);
  EXPECT_LE(harness.get().recovery_tracker().restarts, lives);
  WipeRingDir(recovery.dir);
}

}  // namespace
}  // namespace floatfl
