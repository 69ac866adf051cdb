// Everything that crosses a round boundary lives in the serialized engine
// state; per-round buffers are locals of the round. Each test hops a run
// onto a fresh engine at EVERY boundary (save, construct, restore, run one
// more step) and requires the final checkpoint to match an uninterrupted
// run byte for byte. State carried from one round into the next outside the
// checkpoint would break the chain at the first hop where it mattered.
#include <cstddef>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

template <typename Run>
std::string StateOf(const Run& run) {
  CheckpointWriter w;
  run.SaveState(w);
  return w.buffer();
}

// `make(k)` builds a fresh engine for step k; `step(engine, k)` runs step k.
template <typename Make, typename Step>
void ExpectResumeAtEveryBoundary(size_t steps, const Make& make, const Step& step) {
  auto full = make(size_t{0});
  for (size_t k = 0; k < steps; ++k) {
    step(*full, k);
  }
  const std::string expected = StateOf(*full);

  std::string checkpoint;
  for (size_t k = 0; k < steps; ++k) {
    auto hop = make(k);
    if (k > 0) {
      CheckpointReader r(checkpoint);
      hop->LoadState(r);
      ASSERT_TRUE(r.ok()) << "restore before step " << k;
    }
    step(*hop, k);
    checkpoint = StateOf(*hop);
  }
  EXPECT_EQ(expected, checkpoint);
}

// The sync engine's selector state travels with it in a checkpoint.
struct SyncRun {
  explicit SyncRun(const ExperimentConfig& config)
      : selector(config.seed), engine(config, &selector, nullptr) {}
  void SaveState(CheckpointWriter& w) const {
    engine.SaveState(w);
    selector.SaveState(w);
  }
  void LoadState(CheckpointReader& r) {
    engine.LoadState(r);
    selector.LoadState(r);
  }
  RandomSelector selector;
  SyncEngine engine;
};

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 8;
  config.num_threads = 1;
  config.seed = 42;
  // Lossy chunked transport, so per-transfer wire accounting is in play.
  config.faults.transport = true;
  config.faults.chunk_loss_prob = 0.05;
  return config;
}

void ExpectSyncResumeAtEveryBoundary(const ExperimentConfig& base, size_t threads_cycle) {
  ExpectResumeAtEveryBoundary(
      base.rounds,
      [&](size_t k) {
        ExperimentConfig config = base;
        config.num_threads = 1 + k % threads_cycle;
        return std::make_unique<SyncRun>(config);
      },
      [](SyncRun& run, size_t k) { run.engine.RunRound(k); });
}

TEST(RoundStateTest, SyncEngineResumesAtEveryRound) {
  ExpectSyncResumeAtEveryBoundary(SmallConfig(), 1);
}

// Crash, corruption and flaky-client episodes fill the fault and dropout
// paths, including the retry cooldown that spans rounds.
TEST(RoundStateTest, SyncEngineWithFaultsResumesAtEveryRound) {
  ExperimentConfig config = SmallConfig();
  config.faults.transport = false;
  config.faults.chunk_loss_prob = 0.0;
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.05;
  config.faults.flaky_fraction = 0.25;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.5;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  ExpectSyncResumeAtEveryBoundary(config, 1);
}

// The thread count is not part of the state: every hop may use another one.
TEST(RoundStateTest, SyncEngineResumesAcrossThreadCounts) {
  ExpectSyncResumeAtEveryBoundary(SmallConfig(), 3);
}

TEST(RoundStateTest, AsyncEngineResumesAtEveryVersion) {
  ExperimentConfig config = SmallConfig();
  config.rounds = 6;
  config.async_concurrency = 12;
  config.async_buffer = 4;
  config.faults.crash_prob = 0.1;
  ExpectResumeAtEveryBoundary(
      config.rounds, [&](size_t) { return std::make_unique<AsyncEngine>(config, nullptr); },
      [](AsyncEngine& engine, size_t k) { engine.RunUntil(k + 1); });
}

TEST(RoundStateTest, RealEngineResumesAtEveryRound) {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.num_threads = 1;
  config.seed = 42;
  config.faults.transport = true;
  config.faults.chunk_loss_prob = 0.05;
  config.faults.crash_prob = 0.1;
  ExpectResumeAtEveryBoundary(
      4, [&](size_t) { return std::make_unique<RealFlEngine>(config); },
      [](RealFlEngine& engine, size_t k) {
        engine.RunRound(k % 2 == 0 ? TechniqueKind::kNone : TechniqueKind::kQuant8);
      });
}

// The real engine with FLOAT attached. A policy round starts from the test
// accuracy the previous round ended with; that value is derived from the
// global model and not checkpointed, so a restored engine recomputes it.
struct RealPolicyRun {
  explicit RealPolicyRun(const RealFlConfig& config)
      : policy(FloatController::MakeDefault(config.seed, 8)), engine(config) {
    engine.AttachPolicy(policy.get());
  }
  void SaveState(CheckpointWriter& w) const { engine.SaveState(w); }
  void LoadState(CheckpointReader& r) { engine.LoadState(r); }
  std::unique_ptr<FloatController> policy;
  RealFlEngine engine;
};

RealFlConfig RealPolicyConfig() {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.num_threads = 1;
  config.seed = 42;
  config.faults.crash_prob = 0.1;
  return config;
}

TEST(RoundStateTest, RealEngineWithPolicyResumesAtEveryRound) {
  ExpectResumeAtEveryBoundary(
      5, [](size_t) { return std::make_unique<RealPolicyRun>(RealPolicyConfig()); },
      [](RealPolicyRun& run, size_t) { run.engine.RunRoundWithPolicy(); });
}

// An engine that loads one of its own older checkpoints must not start the
// next round from the accuracy its last round ended with: that belonged to
// another model.
TEST(RoundStateTest, RealEngineRewindMatchesFreshRestore) {
  RealPolicyRun run(RealPolicyConfig());
  std::string after_round3;
  for (size_t k = 0; k < 6; ++k) {
    run.engine.RunRoundWithPolicy();
    if (k == 2) {
      after_round3 = StateOf(run);
    }
  }
  CheckpointReader rewind(after_round3);
  run.LoadState(rewind);
  ASSERT_TRUE(rewind.ok());
  run.engine.RunRoundWithPolicy();

  RealPolicyRun fresh(RealPolicyConfig());
  CheckpointReader restore(after_round3);
  fresh.LoadState(restore);
  ASSERT_TRUE(restore.ok());
  fresh.engine.RunRoundWithPolicy();
  EXPECT_EQ(StateOf(run), StateOf(fresh));
}

TEST(RoundStateTest, VflEngineResumesAtEveryEpoch) {
  VflConfig config;
  config.seed = 42;
  config.train_samples = 120;
  config.faults.transport = true;
  config.faults.chunk_loss_prob = 0.05;
  ExpectResumeAtEveryBoundary(
      4, [&](size_t) { return std::make_unique<VflEngine>(config); },
      [](VflEngine& engine, size_t k) {
        engine.TrainEpoch(k == 1 ? TechniqueKind::kQuant16 : TechniqueKind::kNone);
      });
}

}  // namespace
}  // namespace floatfl
