// Checkpoint/resume with salvage and speculation mid-flight (DESIGN.md
// §16): a run interrupted at the halfway point — salvage counters
// accumulated, the backup ring cursor advanced, straggler profiles formed —
// must finish bit-identical to the uninterrupted run. The salvage layer
// bumped the checkpoint format to v9; an armed archive asserts that and a
// version-patched v8 copy is refused instead of misparsed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Salvage + speculation + the interruptions they feed on, so the checkpoint
// carries non-trivial tracker counters, scheduler cursor and EWMA profiles.
ExperimentConfig ArmedConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 100;
  config.seed = 2121;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  config.faults.crash_prob = 0.2;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  return config;
}

void ExpectIdenticalFinalState(const ExperimentResult& expected, const ExperimentResult& actual) {
  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  EXPECT_EQ(expected.total_completed, actual.total_completed);
  EXPECT_EQ(expected.partials_salvaged, actual.partials_salvaged);
  EXPECT_EQ(expected.partials_below_min, actual.partials_below_min);
  EXPECT_EQ(expected.partials_rejected, actual.partials_rejected);
  EXPECT_EQ(expected.salvaged_steps, actual.salvaged_steps);
  EXPECT_EQ(expected.salvaged_progress_mb, actual.salvaged_progress_mb);
  EXPECT_EQ(expected.backups_planned, actual.backups_planned);
  EXPECT_EQ(expected.backups_won, actual.backups_won);
  EXPECT_EQ(expected.backups_redundant, actual.backups_redundant);
  EXPECT_EQ(expected.deadline_misses_averted, actual.deadline_misses_averted);
}

TEST(SalvageResumeTest, SyncFiftyPlusFiftyIsBitExact) {
  const ExperimentConfig config = ArmedConfig();
  const std::string path = TempPath("salvage_sync_resume.ckpt");
  ASSERT_EQ(Checkpointer::kVersion, 9u);

  RandomSelector full_sel(config.seed);
  StaticPolicy full_pol(TechniqueKind::kQuant8);
  SyncEngine full(config, &full_sel, &full_pol);
  const ExperimentResult expected = full.Run();
  // The interruption point must land with salvage state in flight.
  EXPECT_GT(expected.partials_salvaged, 0u);
  EXPECT_GT(expected.backups_planned, 0u);

  RandomSelector half_sel(config.seed);
  StaticPolicy half_pol(TechniqueKind::kQuant8);
  SyncEngine half(config, &half_sel, &half_pol);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  // Premise: the checkpoint itself carries live salvage state.
  EXPECT_GT(half.salvage_tracker().partials_salvaged, 0u);
  EXPECT_GT(half.speculative_scheduler().BackupsPlanned(), 0u);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RandomSelector resumed_sel(config.seed);
  StaticPolicy resumed_pol(TechniqueKind::kQuant8);
  SyncEngine resumed(config, &resumed_sel, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();

  ExpectIdenticalFinalState(expected, actual);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(SalvageResumeTest, AsyncFiftyPlusFiftyIsBitExact) {
  ExperimentConfig config = ArmedConfig();
  // The async engine has no round deadline and refuses speculation; partial
  // salvage alone rides its checkpoint.
  config.salvage.speculation = false;
  config.async_concurrency = 16;
  config.async_buffer = 4;
  const std::string path = TempPath("salvage_async_resume.ckpt");

  StaticPolicy full_pol(TechniqueKind::kQuant8);
  AsyncEngine full(config, &full_pol);
  const ExperimentResult expected = full.Run();
  EXPECT_GT(expected.partials_salvaged, 0u);

  StaticPolicy half_pol(TechniqueKind::kQuant8);
  AsyncEngine half(config, &half_pol);
  half.RunUntil(config.rounds / 2);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  StaticPolicy resumed_pol(TechniqueKind::kQuant8);
  AsyncEngine resumed(config, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.Version(), config.rounds / 2);
  const ExperimentResult actual = resumed.Run();

  ExpectIdenticalFinalState(expected, actual);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(SalvageResumeTest, RealHalfPlusHalfIsBitExact) {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 53;
  config.num_threads = 1;
  config.sgd.epochs = 2;
  config.faults.crash_prob = 0.3;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.transport_chunk_mb = 0.01;
  config.faults.max_transfer_retries = 1;
  config.salvage.enabled = true;
  const std::string path = TempPath("salvage_real_resume.ckpt");
  constexpr size_t kRounds = 8;

  RealFlEngine full(config);
  size_t salvaged = 0;
  for (size_t r = 0; r < kRounds; ++r) {
    salvaged += full.RunRound(TechniqueKind::kNone).partials_salvaged;
  }
  EXPECT_GT(salvaged, 0u);

  RealFlEngine half(config);
  for (size_t r = 0; r < kRounds / 2; ++r) {
    half.RunRound(TechniqueKind::kNone);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RealFlEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    resumed.RunRound(TechniqueKind::kNone);
  }

  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  EXPECT_EQ(full.salvage_tracker().partials_salvaged,
            resumed.salvage_tracker().partials_salvaged);
  EXPECT_EQ(full.salvage_tracker().salvaged_steps, resumed.salvage_tracker().salvaged_steps);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(SalvageResumeTest, ArmedArchiveIsV9AndAPatchedV8CopyIsRefused) {
  ExperimentConfig config = ArmedConfig();
  config.rounds = 6;
  const std::string path = TempPath("salvage_v8_refusal.ckpt");

  RandomSelector selector(config.seed);
  StaticPolicy policy(TechniqueKind::kQuant8);
  SyncEngine engine(config, &selector, &policy);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  // The archive restores under the current (v9) format.
  RandomSelector ok_sel(config.seed);
  StaticPolicy ok_pol(TechniqueKind::kQuant8);
  SyncEngine ok_target(config, &ok_sel, &ok_pol);
  EXPECT_TRUE(Checkpointer::Restore(path, ok_target));

  // Patch the version word (bytes 4..7, after the magic) down to 8: an
  // older-layout archive must be refused, not misparsed into salvage state.
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

  RandomSelector v8_sel(config.seed);
  StaticPolicy v8_pol(TechniqueKind::kQuant8);
  SyncEngine v8_target(config, &v8_sel, &v8_pol);
  EXPECT_FALSE(Checkpointer::Restore(path, v8_target));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
