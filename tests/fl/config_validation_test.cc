// Every engine constructor validates its ExperimentConfig up front; each
// violated invariant must abort with a message naming the offending field.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "src/fl/async_engine.h"
#include "src/fl/experiment.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig Valid() {
  ExperimentConfig config;
  config.num_clients = 20;
  config.clients_per_round = 5;
  config.rounds = 10;
  return config;
}

TEST(ConfigValidationTest, ValidConfigPasses) {
  ValidateExperimentConfig(Valid());  // must not abort
}

TEST(ConfigValidationDeathTest, ZeroClients) {
  ExperimentConfig config = Valid();
  config.num_clients = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "num_clients must be positive");
}

TEST(ConfigValidationDeathTest, ZeroClientsPerRound) {
  ExperimentConfig config = Valid();
  config.clients_per_round = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "clients_per_round must be positive");
}

TEST(ConfigValidationDeathTest, ZeroRounds) {
  ExperimentConfig config = Valid();
  config.rounds = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "rounds must be positive");
}

TEST(ConfigValidationDeathTest, ZeroEpochs) {
  ExperimentConfig config = Valid();
  config.epochs = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "epochs must be positive");
}

TEST(ConfigValidationDeathTest, ZeroBatchSize) {
  ExperimentConfig config = Valid();
  config.batch_size = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "batch_size must be positive");
}

TEST(ConfigValidationDeathTest, ZeroAlpha) {
  ExperimentConfig config = Valid();
  config.alpha = 0.0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "alpha must be positive");
}

TEST(ConfigValidationDeathTest, NegativeAlpha) {
  ExperimentConfig config = Valid();
  config.alpha = -0.5;
  EXPECT_DEATH(ValidateExperimentConfig(config), "alpha must be positive");
}

TEST(ConfigValidationDeathTest, NanAlpha) {
  ExperimentConfig config = Valid();
  config.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(ValidateExperimentConfig(config), "alpha must be positive");
}

// The engine refuses the config before it partitions the population, whose
// Dirichlet draw needs a positive alpha.
TEST(ConfigValidationDeathTest, SyncEngineRefusesZeroAlpha) {
  ExperimentConfig config = Valid();
  config.alpha = 0.0;
  RandomSelector selector(config.seed);
  EXPECT_DEATH({ SyncEngine engine(config, &selector, nullptr); }, "alpha must be positive");
}

TEST(ConfigValidationDeathTest, AsyncEngineRefusesZeroAlpha) {
  ExperimentConfig config = Valid();
  config.alpha = 0.0;
  EXPECT_DEATH({ AsyncEngine engine(config, nullptr); }, "alpha must be positive");
}

TEST(ConfigValidationDeathTest, ZeroAsyncConcurrency) {
  ExperimentConfig config = Valid();
  config.async_concurrency = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "async_concurrency must be positive");
}

TEST(ConfigValidationDeathTest, ZeroAsyncBuffer) {
  ExperimentConfig config = Valid();
  config.async_buffer = 0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "async_buffer must be positive");
}

TEST(ConfigValidationDeathTest, BufferLargerThanConcurrency) {
  ExperimentConfig config = Valid();
  config.async_concurrency = 4;
  config.async_buffer = 5;
  EXPECT_DEATH(ValidateExperimentConfig(config), "async_buffer cannot exceed async_concurrency");
}

TEST(ConfigValidationDeathTest, UndercommitRejected) {
  ExperimentConfig config = Valid();
  config.faults.overcommit = 0.5;
  EXPECT_DEATH(ValidateExperimentConfig(config), "overcommit must be >= 1.0");
}

TEST(ConfigValidationDeathTest, NonPositiveRejectNormThreshold) {
  ExperimentConfig config = Valid();
  config.faults.reject_norm_threshold = 0.0;
  EXPECT_DEATH(ValidateExperimentConfig(config),
               "reject_norm_threshold must be positive");
}

TEST(ConfigValidationDeathTest, ChunkLossProbOutOfRange) {
  ExperimentConfig config = Valid();
  config.faults.chunk_loss_prob = 1.0;  // 1.0 would retransmit forever
  EXPECT_DEATH(ValidateExperimentConfig(config), "chunk_loss_prob must be in");
}

TEST(ConfigValidationDeathTest, LinkBlackoutProbOutOfRange) {
  ExperimentConfig config = Valid();
  config.faults.link_blackout_prob = -0.1;
  EXPECT_DEATH(ValidateExperimentConfig(config), "link_blackout_prob must be in");
}

TEST(ConfigValidationDeathTest, NonPositiveTransportChunk) {
  ExperimentConfig config = Valid();
  config.faults.transport_chunk_mb = 0.0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "transport_chunk_mb must be positive");
}

TEST(ConfigValidationDeathTest, AdaptiveDeadlineFactorsInverted) {
  ExperimentConfig config = Valid();
  config.adaptive_deadline.min_factor = 2.0;
  config.adaptive_deadline.max_factor = 1.0;
  EXPECT_DEATH(ValidateExperimentConfig(config),
               "0 < min_factor <= max_factor");
}

TEST(ConfigValidationDeathTest, NonPositiveAdaptiveHeadroom) {
  ExperimentConfig config = Valid();
  config.adaptive_deadline.headroom = 0.0;
  EXPECT_DEATH(ValidateExperimentConfig(config), "headroom must be positive");
}

// The real and VFL engines run the same fault checks: unchecked, a real
// engine with reject_norm_threshold = 0 quarantines every update, and one
// with chunk_loss_prob = 1 times out every upload.
RealFlConfig SmallReal() {
  RealFlConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.num_classes = 3;
  config.input_dim = 4;
  config.hidden_dims = {4};
  config.test_samples_per_class = 4;
  config.num_threads = 1;
  return config;
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroRejectNormThreshold) {
  RealFlConfig config = SmallReal();
  config.faults.reject_norm_threshold = 0.0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "reject_norm_threshold must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroAlpha) {
  RealFlConfig config = SmallReal();
  config.alpha = 0.0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "alpha must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesNegativeAlpha) {
  RealFlConfig config = SmallReal();
  config.alpha = -0.5;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "alpha must be positive");
}

// The real engine names each field it cannot run before it builds anything:
// the base, the model and the synthetic task come after the checks.
TEST(ConfigValidationDeathTest, RealEngineRefusesZeroClients) {
  RealFlConfig config = SmallReal();
  config.num_clients = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "num_clients must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroClientsPerRound) {
  RealFlConfig config = SmallReal();
  config.clients_per_round = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "clients_per_round must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesOneClass) {
  RealFlConfig config = SmallReal();
  config.num_classes = 1;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "num_classes must be at least 2");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroInputDim) {
  RealFlConfig config = SmallReal();
  config.input_dim = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "input_dim must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesNegativeClassSeparation) {
  RealFlConfig config = SmallReal();
  config.class_separation = -1.0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "class_separation must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroHiddenWidth) {
  RealFlConfig config = SmallReal();
  config.hidden_dims = {0};
  EXPECT_DEATH({ RealFlEngine engine(config); }, "every hidden_dims width must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroBatchSize) {
  RealFlConfig config = SmallReal();
  config.sgd.batch_size = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "sgd.batch_size must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesZeroEpochs) {
  RealFlConfig config = SmallReal();
  config.sgd.epochs = 0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "sgd.epochs must be positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesNanLearningRate) {
  RealFlConfig config = SmallReal();
  config.sgd.learning_rate = std::numeric_limits<float>::quiet_NaN();
  EXPECT_DEATH({ RealFlEngine engine(config); }, "sgd.learning_rate must be finite and positive");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesCertainChunkLoss) {
  RealFlConfig config = SmallReal();
  config.faults.chunk_loss_prob = 1.0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "chunk_loss_prob must be in");
}

TEST(ConfigValidationDeathTest, RealEngineRefusesNegativeByzantineScale) {
  RealFlConfig config = SmallReal();
  config.faults.byzantine_scale = -3.0;
  EXPECT_DEATH({ RealFlEngine engine(config); }, "byzantine_scale must be non-negative");
}

TEST(ConfigValidationDeathTest, VflEngineRefusesCertainChunkLoss) {
  VflConfig config;
  config.faults.chunk_loss_prob = 1.0;
  EXPECT_DEATH({ VflEngine engine(config); }, "chunk_loss_prob must be in");
}

TEST(ConfigValidationDeathTest, VflEngineRefusesOutOfRangeDuplicateProb) {
  VflConfig config;
  config.faults.duplicate_prob = 1.5;
  EXPECT_DEATH({ VflEngine engine(config); }, "duplicate_prob must be in");
}

// Every fault probability is the validator's to check, named like every
// other fault field; the client-tier flaky chain's probabilities are
// range-checked like their edge twins (ValidateTopologyConfig).
TEST(ConfigValidationDeathTest, EveryFaultProbabilityIsRangeChecked) {
  const std::pair<double FaultConfig::*, const char*> fields[] = {
      {&FaultConfig::crash_prob, "faults.crash_prob must be in"},
      {&FaultConfig::corrupt_prob, "faults.corrupt_prob must be in"},
      {&FaultConfig::flaky_fraction, "faults.flaky_fraction must be in"},
      {&FaultConfig::flaky_enter_prob, "faults.flaky_enter_prob must be in"},
      {&FaultConfig::flaky_exit_prob, "faults.flaky_exit_prob must be in"},
      {&FaultConfig::flaky_crash_prob, "faults.flaky_crash_prob must be in"},
  };
  for (const auto& [field, message] : fields) {
    for (const double bad : {-0.1, 1.5}) {
      ExperimentConfig config = Valid();
      config.faults.*field = bad;
      EXPECT_DEATH(ValidateExperimentConfig(config), message) << bad;
    }
  }
}

// Each engine refuses the config before it builds anything from it.
TEST(ConfigValidationDeathTest, EveryEngineRefusesFlakyEnterProbAboveOne) {
  ExperimentConfig config = Valid();
  config.faults.flaky_enter_prob = 1.5;
  EXPECT_DEATH(
      {
        RandomSelector selector(config.seed);
        SyncEngine engine(config, &selector, nullptr);
      },
      "faults.flaky_enter_prob must be in");
  EXPECT_DEATH({ AsyncEngine engine(config, nullptr); }, "faults.flaky_enter_prob must be in");
  RealFlConfig real = SmallReal();
  real.faults.flaky_enter_prob = 1.5;
  EXPECT_DEATH({ RealFlEngine engine(real); }, "faults.flaky_enter_prob must be in");
  VflConfig vfl;
  vfl.faults.flaky_enter_prob = 1.5;
  EXPECT_DEATH({ VflEngine engine(vfl); }, "faults.flaky_enter_prob must be in");
}

TEST(ConfigValidationDeathTest, VflEngineNamesItsShape) {
  VflConfig config;
  config.num_parties = 1;
  EXPECT_DEATH({ VflEngine engine(config); }, "num_parties must be at least 2");
  config = VflConfig{};
  config.features_per_party = 0;
  EXPECT_DEATH({ VflEngine engine(config); }, "features_per_party must be positive");
  config = VflConfig{};
  config.batch_size = 0;
  EXPECT_DEATH({ VflEngine engine(config); }, "batch_size must be positive");
}

// A zero-width split model trains at chance accuracy.
TEST(ConfigValidationDeathTest, VflEngineRefusesZeroEmbeddingDim) {
  VflConfig config;
  config.embedding_dim = 0;
  EXPECT_DEATH({ VflEngine engine(config); }, "embedding_dim must be positive");
}

// With one class every prediction is right at loss 0.
TEST(ConfigValidationDeathTest, VflEngineRefusesASingleClass) {
  VflConfig config;
  config.num_classes = 1;
  EXPECT_DEATH({ VflEngine engine(config); }, "num_classes must be at least 2");
}

}  // namespace
}  // namespace floatfl
