// Checkpoint/resume with the tree active (DESIGN.md §8 + §13): a run of
// 100 rounds must equal 50 rounds + checkpoint + restore into a fresh
// engine + 50 more, bit for bit, with edge faults, failover and the lossy
// inter-tier link all live across the boundary. The v6 format refuses v5
// archives and any checkpoint whose topology config differs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

ExperimentConfig TreeExperiment() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 100;
  config.seed = 555;
  config.faults.crash_prob = 0.05;
  config.topology.num_edges = 4;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_crash_prob = 0.15;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_flaky_fraction = 0.5;
  config.topology.edge_flaky_enter_prob = 0.2;
  config.topology.edge_flaky_exit_prob = 0.4;
  config.topology.edge_flaky_crash_prob = 0.2;
  config.topology.edge_byzantine_mode = ByzantineMode::kScaledReplacement;
  config.topology.edge_byzantine_fraction = 0.6;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

TEST(TopologyResumeTest, SyncEngineFiftyPlusFiftyGoldenResume) {
  const ExperimentConfig config = TreeExperiment();
  const std::string path = TempPath("topology_resume.ckpt");

  RandomSelector full_sel(config.seed);
  StaticPolicy full_pol(TechniqueKind::kQuant8);
  SyncEngine full(config, &full_sel, &full_pol);
  const ExperimentResult expected = full.Run();
  // The reference run exercises every tree mechanism across the boundary.
  EXPECT_GT(expected.edge_crashes, 0u);
  EXPECT_GT(expected.reparented_clients, 0u);
  EXPECT_GT(expected.tampered_partials, 0u);

  RandomSelector half_sel(config.seed);
  StaticPolicy half_pol(TechniqueKind::kQuant8);
  SyncEngine half(config, &half_sel, &half_pol);
  for (size_t round = 0; round < 50; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RandomSelector resumed_sel(config.seed);
  StaticPolicy resumed_pol(TechniqueKind::kQuant8);
  SyncEngine resumed(config, &resumed_sel, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), 50u);
  const ExperimentResult actual = resumed.Run();

  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  EXPECT_EQ(expected.total_completed, actual.total_completed);
  EXPECT_EQ(expected.wall_clock_hours, actual.wall_clock_hours);
  EXPECT_EQ(expected.edge_crashes, actual.edge_crashes);
  EXPECT_EQ(expected.edge_blackouts, actual.edge_blackouts);
  EXPECT_EQ(expected.reparented_clients, actual.reparented_clients);
  EXPECT_EQ(expected.orphaned_clients, actual.orphaned_clients);
  EXPECT_EQ(expected.partials_forwarded, actual.partials_forwarded);
  EXPECT_EQ(expected.partials_lost, actual.partials_lost);
  EXPECT_EQ(expected.tampered_partials, actual.tampered_partials);
  EXPECT_EQ(expected.tampered_rejections, actual.tampered_rejections);
  EXPECT_EQ(expected.tier1_wire_mb, actual.tier1_wire_mb);
  EXPECT_EQ(expected.tier1_retransmitted_mb, actual.tier1_retransmitted_mb);

  // The full engines' serialized states are byte-identical too.
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(TopologyResumeTest, RealEngineGoldenResumeWithTreeActive) {
  RealFlConfig config;
  config.num_clients = 9;
  config.clients_per_round = 6;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 17;
  config.num_threads = 1;
  config.topology.num_edges = 3;
  config.topology.edge_crash_prob = 0.2;
  config.topology.edge_byzantine_mode = ByzantineMode::kSignFlip;
  config.topology.edge_byzantine_fraction = 0.4;
  const std::string path = TempPath("topology_real_resume.ckpt");
  const size_t total_rounds = 8;

  RealFlEngine full(config);
  RealRoundStats expected;
  for (size_t r = 0; r < total_rounds; ++r) {
    expected = full.RunRound(TechniqueKind::kQuant8);
  }

  RealFlEngine half(config);
  for (size_t r = 0; r < total_rounds / 2; ++r) {
    half.RunRound(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RealFlEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), total_rounds / 2);
  RealRoundStats actual;
  for (size_t r = total_rounds / 2; r < total_rounds; ++r) {
    actual = resumed.RunRound(TechniqueKind::kQuant8);
  }

  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.participants, actual.participants);
  EXPECT_EQ(expected.orphaned, actual.orphaned);
  EXPECT_EQ(expected.reparented, actual.reparented);
  EXPECT_EQ(expected.tampered_partials, actual.tampered_partials);
  EXPECT_EQ(full.topology_tracker().edge_crashes, resumed.topology_tracker().edge_crashes);
  EXPECT_EQ(full.topology_tracker().reparented_clients,
            resumed.topology_tracker().reparented_clients);
  std::remove(path.c_str());
}

TEST(TopologyResumeTest, VersionFiveArchiveIsRefused) {
  const ExperimentConfig config = TreeExperiment();
  // A well-formed v5-looking archive: right magic, tag and fingerprint, but
  // the previous format version. The version check must refuse it before
  // anything else is even parsed.
  CheckpointWriter w;
  w.U32(Checkpointer::kMagic);
  w.U32(5);
  w.U32(static_cast<uint32_t>(Checkpointer::EngineTag::kSync));
  w.U64(FingerprintConfig(config));
  const std::string path = TempPath("v5_archive.ckpt");
  ASSERT_TRUE(w.WriteFile(path));

  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, engine));
  std::remove(path.c_str());
}

TEST(TopologyResumeTest, TopologyConfigJoinsTheFingerprint) {
  // A checkpoint taken under one tree must not restore into an engine built
  // with a different one — down to a single knob.
  const ExperimentConfig config = TreeExperiment();
  const std::string path = TempPath("topology_fingerprint.ckpt");
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  ExperimentConfig other = config;
  other.topology.edge_crash_prob = 0.16;
  RandomSelector other_sel(other.seed);
  SyncEngine mismatched(other, &other_sel, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, mismatched));

  ExperimentConfig flat = config;
  flat.topology = TopologyConfig{};
  RandomSelector flat_sel(flat.seed);
  SyncEngine star(flat, &flat_sel, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, star));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
