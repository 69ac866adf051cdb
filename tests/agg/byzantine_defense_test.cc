// Attack-vs-defense acceptance tests (DESIGN.md §9): under a 20% sign-flip
// collusion every robust rule must strictly beat plain FedAvg at the same
// seed; attack-free configurations remain bit-identical no-ops; and the
// determinism contracts (thread-count invariance, bit-for-bit
// checkpoint/resume) hold with the adversary switched on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// --- Real engine: parameter-space attacks vs parameter-space defenses ------

RealFlConfig AttackedRealConfig(AggregatorKind kind) {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 20;
  config.seed = 9;  // draws exactly 2 of 10 clients as colluding attackers
  config.num_threads = 1;
  config.faults.byzantine_mode = ByzantineMode::kSignFlip;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 4.0;
  config.aggregator.kind = kind;
  // Both colluders can land in the same 5-client cohort (40% contamination
  // that round), so the trim budget must cover two per tail.
  config.aggregator.trim_fraction = 0.4;
  config.aggregator.clip_norm = 0.5;
  return config;
}

struct RealRunSummary {
  double final_accuracy = 0.0;
  size_t byzantine_selected = 0;
};

RealRunSummary RunAttackedReal(AggregatorKind kind, size_t rounds = 10) {
  RealFlEngine engine(AttackedRealConfig(kind));
  RealRoundStats stats;
  RealRunSummary summary;
  for (size_t r = 0; r < rounds; ++r) {
    stats = engine.RunRound(TechniqueKind::kNone);
    summary.byzantine_selected += stats.byzantine_selected;
  }
  summary.final_accuracy = stats.test_accuracy;
  return summary;
}

// The shared premise of the defense tests: the attack actually fires and
// actually hurts the undefended baseline.
TEST(ByzantineDefenseTest, SignFlipAttackersAreSelectedAndLogged) {
  const RealRunSummary fedavg = RunAttackedReal(AggregatorKind::kFedAvg);
  EXPECT_GT(fedavg.byzantine_selected, 0u);
}

TEST(ByzantineDefenseTest, MedianBeatsFedAvgUnderSignFlip) {
  EXPECT_GT(RunAttackedReal(AggregatorKind::kMedian).final_accuracy,
            RunAttackedReal(AggregatorKind::kFedAvg).final_accuracy);
}

TEST(ByzantineDefenseTest, TrimmedMeanBeatsFedAvgUnderSignFlip) {
  EXPECT_GT(RunAttackedReal(AggregatorKind::kTrimmedMean).final_accuracy,
            RunAttackedReal(AggregatorKind::kFedAvg).final_accuracy);
}

TEST(ByzantineDefenseTest, KrumBeatsFedAvgUnderSignFlip) {
  EXPECT_GT(RunAttackedReal(AggregatorKind::kKrum).final_accuracy,
            RunAttackedReal(AggregatorKind::kFedAvg).final_accuracy);
}

TEST(ByzantineDefenseTest, NormClipBeatsFedAvgUnderSignFlip) {
  EXPECT_GT(RunAttackedReal(AggregatorKind::kNormClip).final_accuracy,
            RunAttackedReal(AggregatorKind::kFedAvg).final_accuracy);
}

TEST(ByzantineDefenseTest, DefensesReportTheirExclusions) {
  RealFlConfig config = AttackedRealConfig(AggregatorKind::kKrum);
  RealFlEngine krum(config);
  size_t rejections = 0;
  for (size_t r = 0; r < 5; ++r) {
    rejections += krum.RunRound(TechniqueKind::kNone).krum_rejections;
  }
  EXPECT_GT(rejections, 0u);
  EXPECT_EQ(krum.aggregation_tracker().Totals().krum_rejections, rejections);

  config.aggregator.kind = AggregatorKind::kNormClip;
  RealFlEngine clip(config);
  size_t clipped = 0;
  for (size_t r = 0; r < 5; ++r) {
    clipped += clip.RunRound(TechniqueKind::kNone).updates_clipped;
  }
  EXPECT_GT(clipped, 0u);
  EXPECT_EQ(clip.aggregation_tracker().Totals().updates_clipped, clipped);
}

// --- Strict no-op guarantees ----------------------------------------------

TEST(ByzantineDefenseTest, ZeroFractionAttackIsBitIdenticalToDefault) {
  RealFlConfig plain = AttackedRealConfig(AggregatorKind::kFedAvg);
  plain.faults = FaultConfig();
  plain.aggregator = AggregatorConfig();
  RealFlConfig disarmed = plain;
  disarmed.faults.byzantine_mode = ByzantineMode::kSignFlip;
  disarmed.faults.byzantine_fraction = 0.0;  // mode set but nobody attacks

  RealFlEngine a(plain);
  RealFlEngine b(disarmed);
  RealRoundStats sa;
  RealRoundStats sb;
  for (size_t r = 0; r < 4; ++r) {
    sa = a.RunRound(TechniqueKind::kQuant8);
    sb = b.RunRound(TechniqueKind::kQuant8);
  }
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  EXPECT_EQ(sa.byzantine_selected, 0u);
  EXPECT_EQ(sb.byzantine_selected, 0u);
}

TEST(ByzantineDefenseTest, ExplicitFedAvgIsBitIdenticalToDefault) {
  RealFlConfig plain = AttackedRealConfig(AggregatorKind::kFedAvg);
  plain.faults = FaultConfig();
  plain.aggregator = AggregatorConfig();
  RealFlConfig explicit_fedavg = plain;
  explicit_fedavg.aggregator.kind = AggregatorKind::kFedAvg;

  RealFlEngine a(plain);
  RealFlEngine b(explicit_fedavg);
  for (size_t r = 0; r < 4; ++r) {
    a.RunRound(TechniqueKind::kNone);
    b.RunRound(TechniqueKind::kNone);
  }
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
}

// --- Surrogate engines: quality-space attack and defenses ------------------

ExperimentConfig AttackedSurrogateConfig(AggregatorKind kind) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 25;
  config.seed = 321;
  config.assume_no_dropouts = true;  // isolate the adversary from benign churn
  config.faults.byzantine_mode = ByzantineMode::kSignFlip;
  config.faults.byzantine_fraction = 0.3;
  config.aggregator.kind = kind;
  return config;
}

ExperimentResult RunAttackedSync(AggregatorKind kind) {
  const ExperimentConfig config = AttackedSurrogateConfig(kind);
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  return engine.Run();
}

TEST(ByzantineDefenseTest, SurrogateRobustRulesBeatFedAvg) {
  const ExperimentResult fedavg = RunAttackedSync(AggregatorKind::kFedAvg);
  EXPECT_GT(fedavg.byzantine_selected, 0u);
  const ExperimentResult median = RunAttackedSync(AggregatorKind::kMedian);
  const ExperimentResult trimmed = RunAttackedSync(AggregatorKind::kTrimmedMean);
  // Quality-space attacks are bounded (a crafted quality cannot go below 0),
  // so an excluded honest contribution costs more than a kept attacker. Set
  // Multi-Krum's selection to reject only the expected attacker budget
  // (~30% of an 8-client cohort) instead of the conservative auto n-f-2.
  ExperimentConfig krum_config = AttackedSurrogateConfig(AggregatorKind::kKrum);
  krum_config.aggregator.multi_krum_m = 6;
  RandomSelector krum_selector(krum_config.seed);
  SyncEngine krum_engine(krum_config, &krum_selector, nullptr);
  const ExperimentResult krum = krum_engine.Run();
  EXPECT_GT(median.global_accuracy, fedavg.global_accuracy);
  EXPECT_GT(trimmed.global_accuracy, fedavg.global_accuracy);
  EXPECT_GT(krum.global_accuracy, fedavg.global_accuracy);
  EXPECT_GT(trimmed.updates_trimmed, 0u);
  EXPECT_GT(krum.krum_rejections, 0u);
}

TEST(ByzantineDefenseTest, AsyncEngineCountsAttackersAndExclusions) {
  ExperimentConfig config = AttackedSurrogateConfig(AggregatorKind::kTrimmedMean);
  config.async_concurrency = 20;
  config.async_buffer = 6;
  AsyncEngine engine(config, nullptr);
  const ExperimentResult r = engine.Run();
  EXPECT_GT(r.byzantine_selected, 0u);
  EXPECT_GT(r.updates_trimmed, 0u);
}

// --- Thread-count invariance with the adversary on -------------------------

TEST(ByzantineDefenseTest, RealEngineAttacksAreThreadCountInvariant) {
  std::vector<float> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    RealFlConfig config = AttackedRealConfig(AggregatorKind::kKrum);
    config.faults.byzantine_fraction = 0.3;
    config.num_threads = threads;
    RealFlEngine engine(config);
    for (size_t r = 0; r < 4; ++r) {
      engine.RunRound(TechniqueKind::kNone);
    }
    if (reference.empty()) {
      reference = engine.global_model().GetParameters();
    } else {
      EXPECT_EQ(engine.global_model().GetParameters(), reference)
          << "diverged at num_threads=" << threads;
    }
  }
}

TEST(ByzantineDefenseTest, SyncEngineAttacksAreThreadCountInvariant) {
  ExperimentResult reference;
  bool have_reference = false;
  for (size_t threads : {1u, 2u, 8u}) {
    ExperimentConfig config = AttackedSurrogateConfig(AggregatorKind::kTrimmedMean);
    config.num_threads = threads;
    RandomSelector selector(config.seed);
    SyncEngine engine(config, &selector, nullptr);
    const ExperimentResult r = engine.Run();
    if (!have_reference) {
      reference = r;
      have_reference = true;
    } else {
      EXPECT_EQ(r.accuracy_history, reference.accuracy_history);
      EXPECT_EQ(r.byzantine_selected, reference.byzantine_selected);
      EXPECT_EQ(r.updates_trimmed, reference.updates_trimmed);
    }
  }
}

// --- Checkpoint/resume with the adversary on -------------------------------

TEST(ByzantineDefenseTest, RealEngineResumesBitForBitUnderAttack) {
  RealFlConfig config = AttackedRealConfig(AggregatorKind::kKrum);
  config.faults.crash_prob = 0.1;  // mix benign faults in too
  const std::string path = TempPath("byzantine_real_resume.ckpt");
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
  EXPECT_EQ(expected.byzantine_selected, actual.byzantine_selected);
  EXPECT_EQ(expected.krum_rejections, actual.krum_rejections);
  EXPECT_EQ(full.aggregation_tracker().Totals().krum_rejections,
            resumed.aggregation_tracker().Totals().krum_rejections);
  std::remove(path.c_str());
}

TEST(ByzantineDefenseTest, SyncEngineResumesBitForBitUnderAttack) {
  const ExperimentConfig config = AttackedSurrogateConfig(AggregatorKind::kTrimmedMean);
  const std::string path = TempPath("byzantine_sync_resume.ckpt");

  RandomSelector full_sel(config.seed);
  SyncEngine full(config, &full_sel, nullptr);
  const ExperimentResult expected = full.Run();

  RandomSelector half_sel(config.seed);
  SyncEngine half(config, &half_sel, nullptr);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RandomSelector resumed_sel(config.seed);
  SyncEngine resumed(config, &resumed_sel, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();

  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.byzantine_selected, actual.byzantine_selected);
  EXPECT_EQ(expected.updates_trimmed, actual.updates_trimmed);
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  std::remove(path.c_str());
}

TEST(ByzantineDefenseTest, AsyncEngineResumesBitForBitUnderAttack) {
  ExperimentConfig config = AttackedSurrogateConfig(AggregatorKind::kMedian);
  config.async_concurrency = 20;
  config.async_buffer = 6;
  const std::string path = TempPath("byzantine_async_resume.ckpt");

  AsyncEngine full(config, nullptr);
  const ExperimentResult expected = full.Run();

  AsyncEngine half(config, nullptr);
  half.RunUntil(config.rounds / 2);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  AsyncEngine resumed(config, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();

  EXPECT_EQ(expected.accuracy_history, actual.accuracy_history);
  EXPECT_EQ(expected.byzantine_selected, actual.byzantine_selected);
  EXPECT_EQ(expected.global_accuracy, actual.global_accuracy);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
