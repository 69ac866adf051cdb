#include "src/fl/real_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

RealFlConfig FastConfig(uint64_t seed = 5) {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.num_classes = 4;
  config.input_dim = 10;
  config.class_separation = 3.0;
  config.alpha = 0.5;
  config.hidden_dims = {16};
  config.sgd.learning_rate = 0.1f;
  config.sgd.batch_size = 16;
  config.sgd.epochs = 2;
  config.seed = seed;
  return config;
}

TEST(RealEngineTest, FederatedTrainingImprovesAccuracy) {
  RealFlEngine engine(FastConfig());
  const double initial = engine.EvaluateAccuracy();
  RealRoundStats stats;
  for (int round = 0; round < 20; ++round) {
    stats = engine.RunRound(TechniqueKind::kNone);
  }
  EXPECT_GT(stats.test_accuracy, initial);
  EXPECT_GT(stats.test_accuracy, 0.7);
  EXPECT_EQ(stats.participants, 4u);
}

TEST(RealEngineTest, QuantizedUploadsShrinkAndStillLearn) {
  RealFlEngine engine(FastConfig(7));
  RealRoundStats stats;
  for (int round = 0; round < 20; ++round) {
    stats = engine.RunRound(TechniqueKind::kQuant8);
  }
  // 8-bit codes ~4x smaller than fp32.
  EXPECT_LT(stats.mean_upload_bytes, engine.DenseUpdateBytes() / 3.0);
  EXPECT_GT(stats.mean_update_error, 0.0);
  EXPECT_GT(stats.test_accuracy, 0.6);
}

TEST(RealEngineTest, SixteenBitInjectsLessErrorThanEight) {
  RealFlEngine e16(FastConfig(9));
  RealFlEngine e8(FastConfig(9));
  const RealRoundStats s16 = e16.RunRound(TechniqueKind::kQuant16);
  const RealRoundStats s8 = e8.RunRound(TechniqueKind::kQuant8);
  EXPECT_LT(s16.mean_update_error, s8.mean_update_error);
  EXPECT_LT(s16.mean_upload_bytes, e16.DenseUpdateBytes());
  EXPECT_LT(s8.mean_upload_bytes, s16.mean_upload_bytes);
}

TEST(RealEngineTest, PrunedUploadsUseSparseEncoding) {
  RealFlEngine engine(FastConfig(11));
  const RealRoundStats stats = engine.RunRound(TechniqueKind::kPrune75);
  // 25 % survivors x 8 bytes each ~ half the dense fp32 size.
  EXPECT_LT(stats.mean_upload_bytes, engine.DenseUpdateBytes() * 0.6);
  EXPECT_GT(stats.mean_update_error, 0.0);
}

TEST(RealEngineTest, PartialTrainingKeepsByteSizeButTrains) {
  RealFlEngine engine(FastConfig(13));
  RealRoundStats stats;
  for (int round = 0; round < 15; ++round) {
    stats = engine.RunRound(TechniqueKind::kPartial50);
  }
  EXPECT_DOUBLE_EQ(stats.mean_upload_bytes, static_cast<double>(engine.DenseUpdateBytes()));
  EXPECT_DOUBLE_EQ(stats.mean_update_error, 0.0);
  EXPECT_GT(stats.test_accuracy, 0.5);
}

TEST(RealEngineTest, LosslessCompressionShrinksUploads) {
  RealFlEngine engine(FastConfig(15));
  const RealRoundStats stats = engine.RunRound(TechniqueKind::kCompressLossless);
  EXPECT_LT(stats.mean_upload_bytes, engine.DenseUpdateBytes());
}

TEST(RealEngineTest, PerClientTechniqueChoice) {
  RealFlEngine engine(FastConfig(17));
  const RealRoundStats stats = engine.RunRound(
      [](size_t client_id) {
        return client_id % 2 == 0 ? TechniqueKind::kQuant8 : TechniqueKind::kNone;
      });
  EXPECT_EQ(stats.participants, 4u);
  EXPECT_GT(stats.mean_upload_bytes, 0.0);
}

TEST(RealEngineTest, DeterministicForSeed) {
  RealFlEngine a(FastConfig(19));
  RealFlEngine b(FastConfig(19));
  for (int round = 0; round < 5; ++round) {
    const RealRoundStats sa = a.RunRound(TechniqueKind::kNone);
    const RealRoundStats sb = b.RunRound(TechniqueKind::kNone);
    EXPECT_DOUBLE_EQ(sa.test_accuracy, sb.test_accuracy);
    EXPECT_DOUBLE_EQ(sa.test_loss, sb.test_loss);
  }
}

TEST(RealEngineTest, NonIidTrainingStillConverges) {
  RealFlConfig config = FastConfig(21);
  config.alpha = 0.05;  // extreme skew
  RealFlEngine engine(config);
  RealRoundStats stats;
  for (int round = 0; round < 30; ++round) {
    stats = engine.RunRound(TechniqueKind::kNone);
  }
  EXPECT_GT(stats.test_accuracy, 0.5);
}

// 7 classes x 13 samples = 91 test rows, not a multiple of the evaluation
// block. FLOAT is attached, so every round also reads its round-start
// accuracy. Accuracy, loss and the final state must not depend on the
// thread count.
TEST(RealEngineTest, TestSetEvaluationIsThreadInvariant) {
  auto run = [](size_t threads) {
    RealFlConfig config = FastConfig(23);
    config.num_classes = 7;
    config.test_samples_per_class = 13;
    config.num_threads = threads;
    const auto policy = FloatController::MakeDefault(config.seed, 6);
    RealFlEngine engine(config);
    engine.AttachPolicy(policy.get());
    std::vector<uint64_t> bits = {std::bit_cast<uint64_t>(engine.EvaluateAccuracy())};
    for (int round = 0; round < 6; ++round) {
      const RealRoundStats stats = engine.RunRoundWithPolicy();
      bits.push_back(std::bit_cast<uint64_t>(stats.test_accuracy));
      bits.push_back(std::bit_cast<uint64_t>(stats.test_loss));
    }
    bits.push_back(std::bit_cast<uint64_t>(engine.EvaluateAccuracy()));
    CheckpointWriter w;
    engine.SaveState(w);
    return std::make_pair(bits, w.buffer());
  };
  const auto sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

// participants counts the fresh uploads the server accepted whether or not
// an ingestion gate rules on them, so the per-participant means divide the
// same sums by the same count: a storm with salvaged partials reads alike
// with the gate off and with a dedup gate that refuses nothing.
TEST(RealEngineTest, ParticipantsCountTheAcceptedFreshUploadsWithOrWithoutAGate) {
  RealFlConfig ungated = FastConfig(29);
  ungated.faults.crash_prob = 0.5;
  ungated.salvage.enabled = true;
  RealFlConfig gated = ungated;
  gated.admission.dedup = true;
  RealFlEngine off(ungated);
  RealFlEngine on(gated);
  size_t participants = 0;
  size_t salvaged = 0;
  for (int round = 0; round < 10; ++round) {
    const RealRoundStats a = off.RunRound(TechniqueKind::kQuant8);
    const RealRoundStats b = on.RunRound(TechniqueKind::kQuant8);
    EXPECT_EQ(a.participants, b.participants) << round;
    EXPECT_EQ(a.mean_upload_bytes, b.mean_upload_bytes) << round;
    EXPECT_EQ(a.mean_update_error, b.mean_update_error) << round;
    EXPECT_EQ(a.participants + a.crashed, ungated.clients_per_round) << round;
    EXPECT_EQ(b.deduplicated, 0u) << round;
    participants += a.participants;
    salvaged += a.partials_salvaged;
  }
  // Premise: the storm both delivered fresh uploads and salvaged partials.
  EXPECT_GT(participants, 0u);
  EXPECT_GT(salvaged, 0u);
}

// An empty test set would score every round NaN, and the guard never judges
// a NaN round healthy.
TEST(RealEngineDeathTest, EmptyTestSetRefused) {
  RealFlConfig config = FastConfig();
  config.test_samples_per_class = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "test_samples_per_class must be positive");
}

}  // namespace
}  // namespace floatfl
