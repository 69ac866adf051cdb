// Golden kill-and-resume under lossy transport (checkpoint format v3).
//
// With chunk loss, link blackouts and (for sync) the adaptive deadline all
// active, run 50 rounds, checkpoint, restore into freshly constructed
// objects, run 50 more — and the result must be bit-for-bit identical to an
// uninterrupted 100-round run. Covers all four engines; the transport
// tracker, deadline controller and selector net-factor EWMAs are all part of
// the serialized state, so any missed field shows up as a golden mismatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/refl_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

ExperimentConfig LossyExperiment() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 100;
  config.seed = 808;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  config.async_concurrency = 20;
  config.async_buffer = 6;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 3;
  config.faults.crash_prob = 0.05;  // transport composes with legacy faults
  return config;
}

void ExpectResultsIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_dropouts, b.total_dropouts);
  EXPECT_EQ(a.dropout_breakdown.missed_deadline, b.dropout_breakdown.missed_deadline);
  EXPECT_EQ(a.dropout_breakdown.crashed, b.dropout_breakdown.crashed);
  EXPECT_EQ(a.dropout_breakdown.transfer_timed_out, b.dropout_breakdown.transfer_timed_out);
  EXPECT_EQ(a.useful.compute_hours, b.useful.compute_hours);
  EXPECT_EQ(a.useful.comm_hours, b.useful.comm_hours);
  EXPECT_EQ(a.wasted.comm_hours, b.wasted.comm_hours);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
  EXPECT_EQ(a.per_client_selected, b.per_client_selected);
  EXPECT_EQ(a.per_client_completed, b.per_client_completed);
  EXPECT_EQ(a.transfer_attempts, b.transfer_attempts);
  EXPECT_EQ(a.retransmitted_mb, b.retransmitted_mb);
  EXPECT_EQ(a.salvaged_mb, b.salvaged_mb);
  EXPECT_EQ(a.transfer_backoff_s, b.transfer_backoff_s);
}

TEST(NetResumeTest, SyncEngineLossyGoldenResume) {
  // Oort + adaptive deadline: the checkpoint must carry the selector's
  // net-factor EWMAs, the deadline controller and the transport tracker.
  ExperimentConfig config = LossyExperiment();
  config.adaptive_deadline.enabled = true;
  const std::string path = TempPath("net_sync_resume.ckpt");

  OortSelector full_sel(config.seed, config.num_clients);
  SyncEngine full(config, &full_sel, nullptr);
  const ExperimentResult expected = full.Run();
  EXPECT_GT(expected.transfer_attempts, 0u);
  EXPECT_GT(expected.dropout_breakdown.transfer_timed_out +
                expected.dropout_breakdown.missed_deadline,
            0u);

  OortSelector half_sel(config.seed, config.num_clients);
  SyncEngine half(config, &half_sel, nullptr);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  OortSelector resumed_sel(config.seed, config.num_clients);
  SyncEngine resumed(config, &resumed_sel, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), config.rounds / 2);
  ExpectResultsIdentical(expected, resumed.Run());
  std::remove(path.c_str());
}

TEST(NetResumeTest, SyncEngineReflLossyGoldenResume) {
  // REFL's effective-bandwidth eligibility is stateful too.
  ExperimentConfig config = LossyExperiment();
  config.rounds = 60;
  const std::string path = TempPath("net_sync_refl_resume.ckpt");

  ReflSelector full_sel(config.seed, config.num_clients);
  SyncEngine full(config, &full_sel, nullptr);
  const ExperimentResult expected = full.Run();

  ReflSelector half_sel(config.seed, config.num_clients);
  SyncEngine half(config, &half_sel, nullptr);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  ReflSelector resumed_sel(config.seed, config.num_clients);
  SyncEngine resumed(config, &resumed_sel, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  ExpectResultsIdentical(expected, resumed.Run());
  std::remove(path.c_str());
}

TEST(NetResumeTest, AsyncEngineLossyGoldenResume) {
  ExperimentConfig config = LossyExperiment();
  const std::string path = TempPath("net_async_resume.ckpt");

  AsyncEngine full(config, nullptr);
  const ExperimentResult expected = full.Run();
  EXPECT_GT(expected.transfer_attempts, 0u);

  AsyncEngine half(config, nullptr);
  half.RunUntil(config.rounds / 2);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  AsyncEngine resumed(config, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.Version(), config.rounds / 2);
  ExpectResultsIdentical(expected, resumed.Run());
  std::remove(path.c_str());
}

TEST(NetResumeTest, RealEngineLossyGoldenResume) {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 19;
  config.num_threads = 1;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.link_blackout_prob = 0.1;
  config.faults.transport_chunk_mb = 0.01;
  const std::string path = TempPath("net_real_resume.ckpt");
  const size_t total_rounds = 6;

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
  RealRoundStats actual;
  for (size_t r = total_rounds / 2; r < total_rounds; ++r) {
    actual = resumed.RunRound(TechniqueKind::kQuant8);
  }

  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.participants, actual.participants);
  EXPECT_EQ(expected.transfer_timeouts, actual.transfer_timeouts);
  EXPECT_EQ(expected.retransmitted_mb, actual.retransmitted_mb);
  EXPECT_EQ(expected.salvaged_mb, actual.salvaged_mb);
  EXPECT_EQ(full.transport_tracker().attempts, resumed.transport_tracker().attempts);
  std::remove(path.c_str());
}

TEST(NetResumeTest, VflEngineLossyGoldenResume) {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 37;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.link_blackout_prob = 0.1;
  config.faults.transport_chunk_mb = 0.05;
  const std::string path = TempPath("net_vfl_resume.ckpt");
  const size_t total_epochs = 8;

  VflEngine full(config);
  VflRoundStats expected;
  for (size_t e = 0; e < total_epochs; ++e) {
    expected = full.TrainEpoch(TechniqueKind::kQuant8);
  }

  VflEngine half(config);
  for (size_t e = 0; e < total_epochs / 2; ++e) {
    half.TrainEpoch(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  VflEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  VflRoundStats actual;
  for (size_t e = total_epochs / 2; e < total_epochs; ++e) {
    actual = resumed.TrainEpoch(TechniqueKind::kQuant8);
  }

  EXPECT_EQ(expected.train_loss, actual.train_loss);
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.parties_timed_out, actual.parties_timed_out);
  EXPECT_EQ(expected.retransmitted_mb, actual.retransmitted_mb);
  EXPECT_EQ(expected.salvaged_mb, actual.salvaged_mb);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(NetResumeTest, OldVersionCheckpointRefused) {
  // A v2 header (or any foreign version) must be rejected up front: the v3
  // payload layout grew transport state an old reader cannot place.
  ExperimentConfig config = LossyExperiment();
  config.rounds = 4;
  const std::string path = TempPath("net_version_refused.ckpt");

  OortSelector selector(config.seed, config.num_clients);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  // Corrupt the version field (bytes 4..7 of the little-endian header).
  std::string bytes;
  {
    CheckpointReader r("");
    ASSERT_TRUE(CheckpointReader::FromFile(path, &r));
  }
  std::ifstream in(path, std::ios::binary);
  bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 2;  // pretend this is a v2 checkpoint
  bytes[5] = bytes[6] = bytes[7] = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  OortSelector fresh_sel(config.seed, config.num_clients);
  SyncEngine fresh(config, &fresh_sel, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, fresh));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
