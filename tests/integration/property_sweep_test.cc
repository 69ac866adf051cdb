// Parameterized property sweeps: core invariants of the FL engines must hold
// across every dataset, interference scenario, selector and seed combination
// the benches exercise.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/fl/async_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/random_selector.h"
#include "src/selection/refl_selector.h"

namespace floatfl {
namespace {

std::unique_ptr<Selector> MakeSelector(const std::string& name, const ExperimentConfig& config) {
  if (name == "oort") {
    return std::make_unique<OortSelector>(config.seed, config.num_clients);
  }
  if (name == "refl") {
    return std::make_unique<ReflSelector>(config.seed, config.num_clients);
  }
  return std::make_unique<RandomSelector>(config.seed);
}

// The engine configuration every sweep case shares.
ExperimentConfig SweepConfig(DatasetId dataset, InterferenceScenario interference,
                             uint64_t seed) {
  ExperimentConfig config;
  config.num_clients = 50;
  config.clients_per_round = 10;
  config.rounds = 25;
  config.dataset = dataset;
  config.model = ModelId::kResNet34;
  config.interference = interference;
  config.seed = seed;
  config.async_concurrency = 25;
  config.async_buffer = 10;
  return config;
}

const auto kDatasets = ::testing::Values(DatasetId::kFemnist, DatasetId::kCifar10,
                                         DatasetId::kSpeech, DatasetId::kOpenImage);
const auto kInterference = ::testing::Values(InterferenceScenario::kNone,
                                             InterferenceScenario::kStatic,
                                             InterferenceScenario::kDynamic);
const auto kSeeds = ::testing::Values(uint64_t{17}, uint64_t{1234});

using SweepParam = std::tuple<DatasetId, InterferenceScenario, std::string, uint64_t>;

class EngineSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  ExperimentConfig Config() const {
    const auto& [dataset, interference, selector, seed] = GetParam();
    (void)selector;
    return SweepConfig(dataset, interference, seed);
  }
  std::string SelectorName() const { return std::get<2>(GetParam()); }
};

TEST_P(EngineSweep, SyncInvariantsHold) {
  const ExperimentConfig config = Config();
  const std::unique_ptr<Selector> selector = MakeSelector(SelectorName(), config);
  SyncEngine engine(config, selector.get(), nullptr);
  const ExperimentResult r = engine.Run();

  // Conservation: every selection either completed or dropped.
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
  // Selection never exceeds the budget.
  EXPECT_LE(r.total_selected, config.rounds * config.clients_per_round);
  // Accuracy ordering and bounds.
  EXPECT_GE(r.accuracy_bottom10, 0.0);
  EXPECT_LE(r.accuracy_bottom10, r.accuracy_avg + 1e-12);
  EXPECT_LE(r.accuracy_avg, r.accuracy_top10 + 1e-12);
  EXPECT_LE(r.accuracy_top10, 1.0);
  // Monotone accuracy history (saturating curve, no regression).
  for (size_t i = 1; i < r.accuracy_history.size(); ++i) {
    EXPECT_GE(r.accuracy_history[i], r.accuracy_history[i - 1] - 1e-12);
  }
  // Resource accounting is non-negative and time advances.
  EXPECT_GE(r.useful.compute_hours, 0.0);
  EXPECT_GE(r.wasted.compute_hours, 0.0);
  EXPECT_GT(r.wall_clock_hours, 0.0);
  // Per-client tallies are consistent with the totals.
  size_t completed_sum = 0;
  for (size_t c : r.per_client_completed) {
    completed_sum += c;
  }
  EXPECT_EQ(completed_sum, r.total_completed);
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineSweep,
                         ::testing::Combine(kDatasets, kInterference,
                                            ::testing::Values("fedavg", "oort", "refl"),
                                            kSeeds));

// The async engine does its own (FedBuff) selection, so its sweep has no
// selector axis.
using AsyncSweepParam = std::tuple<DatasetId, InterferenceScenario, uint64_t>;

class AsyncEngineSweep : public ::testing::TestWithParam<AsyncSweepParam> {};

TEST_P(AsyncEngineSweep, AsyncInvariantsHold) {
  const auto& [dataset, interference, seed] = GetParam();
  const ExperimentConfig config = SweepConfig(dataset, interference, seed);
  AsyncEngine engine(config, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_EQ(r.total_selected, r.total_completed + r.total_dropouts);
  EXPECT_EQ(r.accuracy_history.size(), config.rounds);
  EXPECT_GE(r.total_completed, config.rounds * config.async_buffer);
  EXPECT_LE(r.accuracy_top10, 1.0);
  EXPECT_GT(r.wall_clock_hours, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Matrix, AsyncEngineSweep,
                         ::testing::Combine(kDatasets, kInterference, kSeeds));

}  // namespace
}  // namespace floatfl
