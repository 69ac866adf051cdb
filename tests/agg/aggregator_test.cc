// Unit tests for the pluggable aggregation rules (DESIGN.md §9): golden
// values for every rule, the knob-derivation edge cases, defense-counter
// accounting, and the quality-space analogues the surrogate engines use.
#include "src/agg/aggregator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/agg/quality_agg.h"
#include "src/common/rng.h"
#include "src/sim/thread_pool.h"

namespace floatfl {
namespace {

std::vector<float> Agg(AggregatorKind kind, const std::vector<std::vector<float>>& updates,
                       const std::vector<double>& weights, const std::vector<float>& global,
                       AggregatorStats* stats = nullptr) {
  AggregatorConfig config;
  config.kind = kind;
  return MakeAggregator(config)->Aggregate(updates, weights, global, stats);
}

std::vector<ClientContribution> MakeContributions(const std::vector<double>& qualities) {
  std::vector<ClientContribution> out;
  for (size_t i = 0; i < qualities.size(); ++i) {
    ClientContribution c;
    c.client_id = i;
    c.quality = qualities[i];
    out.push_back(c);
  }
  return out;
}

TEST(AggregatorTest, WeightedMeanMatchesManualAverage) {
  const std::vector<std::vector<float>> sets = {{2.0f, 4.0f}, {10.0f, 20.0f}};
  const std::vector<float> out = WeightedMeanAggregate(sets, {3.0, 1.0});
  EXPECT_FLOAT_EQ(out[0], 4.0f);   // 0.75*2 + 0.25*10
  EXPECT_FLOAT_EQ(out[1], 8.0f);   // 0.75*4 + 0.25*20
}

TEST(AggregatorTest, WeightedMeanOfEqualWeightsIsThePlainAverage) {
  const std::vector<std::vector<float>> sets = {{1.0f, 2.0f}, {3.0f, 6.0f}};
  const std::vector<float> avg = WeightedMeanAggregate(sets, {1.0, 1.0});
  EXPECT_FLOAT_EQ(avg[0], 2.0f);
  EXPECT_FLOAT_EQ(avg[1], 4.0f);
  const std::vector<float> weighted = WeightedMeanAggregate(sets, {3.0, 1.0});
  EXPECT_FLOAT_EQ(weighted[0], 1.5f);
  EXPECT_FLOAT_EQ(weighted[1], 3.0f);
}

// Only the weight ratios matter: scaling every weight gives the same bits.
TEST(AggregatorTest, WeightedMeanNormalizesByWeightSum) {
  const std::vector<std::vector<float>> sets = {{2.0f, 4.0f}, {10.0f, 20.0f}};
  EXPECT_EQ(WeightedMeanAggregate(sets, {0.75, 0.25}), WeightedMeanAggregate(sets, {3.0, 1.0}));
  EXPECT_EQ(WeightedMeanAggregate(sets, {2.0, 2.0}), WeightedMeanAggregate(sets, {1.0, 1.0}));
}

TEST(AggregatorTest, WeightedMeanSingleClientIsIdentity) {
  const std::vector<float> params = {0.5f, -1.25f, 3.0f, 1e-3f};
  EXPECT_EQ(WeightedMeanAggregate({params}, {7.0}), params);
}

TEST(AggregatorTest, WeightedMeanOfIdenticalModelsIsIdentity) {
  const std::vector<float> params = {0.5f, -1.25f, 3.0f, 1e-3f};
  const std::vector<float> same = WeightedMeanAggregate({params, params, params}, {1.0, 2.0, 3.0});
  ASSERT_EQ(same.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(same[i], params[i], 1e-6);
  }
}

TEST(AggregatorTest, FedAvgDelegatesToWeightedMean) {
  const std::vector<std::vector<float>> sets = {{1.5f, -2.0f, 0.25f}, {0.5f, 4.0f, -1.0f}};
  const std::vector<double> weights = {2.0, 5.0};
  const std::vector<float> global = {0.0f, 0.0f, 0.0f};
  EXPECT_EQ(Agg(AggregatorKind::kFedAvg, sets, weights, global),
            WeightedMeanAggregate(sets, weights));
}

TEST(AggregatorTest, MedianOddCohortPicksMiddleIgnoringWeights) {
  const std::vector<std::vector<float>> sets = {{1.0f, 30.0f}, {2.0f, 10.0f}, {9.0f, 20.0f}};
  // Extreme weights must not matter: the median is unweighted.
  const std::vector<float> out =
      Agg(AggregatorKind::kMedian, sets, {1000.0, 1.0, 1.0}, {0.0f, 0.0f});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 20.0f);
}

TEST(AggregatorTest, MedianEvenCohortAveragesMiddlePair) {
  const std::vector<std::vector<float>> sets = {{1.0f}, {3.0f}, {5.0f}, {100.0f}};
  const std::vector<float> out =
      Agg(AggregatorKind::kMedian, sets, {1.0, 1.0, 1.0, 1.0}, {0.0f});
  EXPECT_FLOAT_EQ(out[0], 4.0f);  // 0.5 * (3 + 5)
}

TEST(AggregatorTest, MedianShrugsOffSingleOutlier) {
  const std::vector<std::vector<float>> sets = {
      {0.9f}, {1.0f}, {1.1f}, {1.0f}, {1e6f}};
  const std::vector<float> out =
      Agg(AggregatorKind::kMedian, sets, {1.0, 1.0, 1.0, 1.0, 1.0}, {0.0f});
  EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(AggregatorTest, TrimmedMeanDropsBothTails) {
  // n=5, trim_fraction=0.2 -> k=1 from each tail per coordinate.
  const std::vector<std::vector<float>> sets = {{0.0f}, {1.0f}, {2.0f}, {3.0f}, {100.0f}};
  AggregatorStats stats;
  const std::vector<float> out = Agg(AggregatorKind::kTrimmedMean, sets,
                                     {1.0, 1.0, 1.0, 1.0, 1.0}, {0.0f}, &stats);
  EXPECT_FLOAT_EQ(out[0], 2.0f);  // mean of {1, 2, 3}
  EXPECT_EQ(stats.updates_trimmed, 2u);
}

TEST(AggregatorTest, TrimmedMeanSmallCohortIsPlainMean) {
  // n=4, trim_fraction=0.2 -> k=0: nothing trimmed, plain unweighted mean.
  const std::vector<std::vector<float>> sets = {{0.0f}, {2.0f}, {4.0f}, {6.0f}};
  AggregatorStats stats;
  const std::vector<float> out =
      Agg(AggregatorKind::kTrimmedMean, sets, {1.0, 1.0, 1.0, 1.0}, {0.0f}, &stats);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_EQ(stats.updates_trimmed, 0u);
}

TEST(AggregatorTest, KrumRejectsIsolatedOutlier) {
  // n=5 -> f=(5-3)/2=1, m=max(1, 5-1-2)=2: the two most-central honest
  // updates are kept; the far outlier (and two fringe honests) are rejected.
  const std::vector<std::vector<float>> sets = {{0.0f}, {0.1f}, {0.2f}, {0.3f}, {100.0f}};
  AggregatorStats stats;
  const std::vector<float> out = Agg(AggregatorKind::kKrum, sets,
                                     {1.0, 1.0, 1.0, 1.0, 1.0}, {0.0f}, &stats);
  EXPECT_NEAR(out[0], 0.15f, 1e-6);  // mean of {0.1, 0.2}
  EXPECT_EQ(stats.krum_rejections, 3u);
}

TEST(AggregatorTest, KrumSmallCohortFallsBackToWeightedMean) {
  const std::vector<std::vector<float>> sets = {{1.0f}, {3.0f}};
  AggregatorStats stats;
  const std::vector<float> out =
      Agg(AggregatorKind::kKrum, sets, {1.0, 3.0}, {0.0f}, &stats);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_EQ(stats.krum_rejections, 0u);
}

TEST(AggregatorTest, NormClipRescalesLongDeltas) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kNormClip;
  config.clip_norm = 1.0;
  auto agg = MakeAggregator(config);
  // Delta (3,4) has norm 5 -> rescaled onto the unit sphere; the short
  // update is untouched.
  const std::vector<std::vector<float>> sets = {{3.0f, 4.0f}, {0.1f, 0.2f}};
  AggregatorStats stats;
  const std::vector<float> out =
      agg->Aggregate(sets, {1.0, 0.0}, {0.0f, 0.0f}, &stats);
  EXPECT_FLOAT_EQ(out[0], 0.6f);
  EXPECT_FLOAT_EQ(out[1], 0.8f);
  EXPECT_EQ(stats.updates_clipped, 1u);
}

TEST(AggregatorTest, NormClipMeasuresDeltaFromGlobal) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kNormClip;
  config.clip_norm = 1.0;
  auto agg = MakeAggregator(config);
  // The update sits far from the origin but exactly on the global model:
  // zero delta, nothing to clip.
  const std::vector<std::vector<float>> sets = {{50.0f, 50.0f}};
  AggregatorStats stats;
  const std::vector<float> out = agg->Aggregate(sets, {1.0}, {50.0f, 50.0f}, &stats);
  EXPECT_FLOAT_EQ(out[0], 50.0f);
  EXPECT_EQ(stats.updates_clipped, 0u);
}

TEST(AggregatorTest, TotalsAccumulateAndRoundTripThroughCheckpoint) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kNormClip;
  config.clip_norm = 1.0;
  auto agg = MakeAggregator(config);
  const std::vector<std::vector<float>> sets = {{3.0f, 4.0f}};
  agg->Aggregate(sets, {1.0}, {0.0f, 0.0f}, nullptr);
  agg->Aggregate(sets, {1.0}, {0.0f, 0.0f}, nullptr);
  EXPECT_EQ(agg->totals().updates_clipped, 2u);

  CheckpointWriter w;
  agg->SaveState(w);
  auto fresh = MakeAggregator(config);
  CheckpointReader r(w.buffer());
  fresh->LoadState(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(fresh->totals().updates_clipped, 2u);
  EXPECT_EQ(fresh->totals().krum_rejections, 0u);
  EXPECT_EQ(fresh->totals().updates_trimmed, 0u);
}

// The inline loop the pooled weighted mean replaced: one pass over every
// coordinate per update, in update order.
std::vector<float> InlineWeightedMean(const std::vector<std::vector<float>>& sets,
                                      const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  std::vector<float> out(sets[0].size(), 0.0f);
  for (size_t s = 0; s < sets.size(); ++s) {
    const float w = static_cast<float>(weights[s] / total);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += w * sets[s][i];
    }
  }
  return out;
}

std::vector<std::vector<float>> RandomSets(size_t count, size_t length, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> sets(count, std::vector<float>(length));
  for (auto& set : sets) {
    for (float& x : set) {
      x = static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  return sets;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AggregatorTest, PooledWeightedMeanMatchesTheInlineLoopBitForBit) {
  // Lengths below, at and past a block boundary (2048 coordinates), and the
  // real engine's 50,826, which no block size up to 2048 divides.
  const std::vector<std::vector<double>> weight_sets = {
      {1.0}, {3.0, 1.0, 2.5}, {0.0, 7.0, 0.0, 1e-3, 60.0}, {61.0, 58.0, 44.0, 0.0, 73.0, 12.0}};
  for (size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
    ThreadPool pool(workers);
    for (size_t length : {size_t{1}, size_t{2047}, size_t{2048}, size_t{6149}, size_t{50826}}) {
      for (const std::vector<double>& weights : weight_sets) {
        const auto sets = RandomSets(weights.size(), length, 41 + length);
        const std::vector<float> expected = InlineWeightedMean(sets, weights);
        EXPECT_TRUE(SameBits(WeightedMeanAggregate(sets, weights, &pool), expected))
            << workers << " workers, " << length << " coordinates, " << weights.size()
            << " updates";
        EXPECT_TRUE(SameBits(WeightedMeanAggregate(sets, weights), expected));
      }
    }
  }
}

TEST(AggregatorTest, WeightedMeanRulesGiveTheSameResultOnAPool) {
  ThreadPool pool(3);
  const auto sets = RandomSets(7, 6149, 43);
  const std::vector<double> weights = {5.0, 0.0, 2.0, 9.0, 1.0, 3.0, 4.0};
  std::vector<float> global(6149, 0.05f);
  for (AggregatorKind kind :
       {AggregatorKind::kFedAvg, AggregatorKind::kKrum, AggregatorKind::kNormClip}) {
    AggregatorConfig config;
    config.kind = kind;
    config.clip_norm = 10.0;  // clips all 7 (delta norms about 23)
    AggregatorStats inline_stats;
    AggregatorStats pooled_stats;
    const std::vector<float> expected =
        MakeAggregator(config)->Aggregate(sets, weights, global, &inline_stats);
    const std::vector<float> pooled =
        MakeAggregator(config)->Aggregate(sets, weights, global, &pooled_stats, &pool);
    EXPECT_TRUE(SameBits(pooled, expected)) << static_cast<int>(kind);
    EXPECT_EQ(pooled_stats.updates_clipped, inline_stats.updates_clipped);
    EXPECT_EQ(pooled_stats.krum_rejections, inline_stats.krum_rejections);
  }
}

TEST(AggregatorValidationTest, RejectsOutOfRangeKnobs) {
  AggregatorConfig trim;
  trim.trim_fraction = 0.5;
  EXPECT_DEATH(ValidateAggregatorConfig(trim), "trim_fraction");
  AggregatorConfig clip;
  clip.clip_norm = 0.0;
  EXPECT_DEATH(ValidateAggregatorConfig(clip), "clip_norm");
}

// --- Quality-space analogues (surrogate engines) ---------------------------

TEST(QualityAggTest, MedianReplacesEveryQuality) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kMedian;
  auto contributions = MakeContributions({1.0, 0.0, 0.9});
  AggregatorStats stats;
  ApplyQualityAggregation(config, contributions, &stats);
  ASSERT_EQ(contributions.size(), 3u);
  for (const auto& c : contributions) {
    EXPECT_DOUBLE_EQ(c.quality, 0.9);
  }
}

TEST(QualityAggTest, TrimmedMeanWinsorizesTheTails) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kTrimmedMean;
  config.trim_fraction = 0.2;
  // Sorted by quality: id0 (0.0) and id2 (1.0) are the tails. Winsorizing
  // clamps them to the interior values instead of dropping them, so the
  // cohort keeps its size and order.
  auto contributions = MakeContributions({0.0, 0.9, 1.0, 0.8, 0.95});
  AggregatorStats stats;
  ApplyQualityAggregation(config, contributions, &stats);
  ASSERT_EQ(contributions.size(), 5u);
  EXPECT_DOUBLE_EQ(contributions[0].quality, 0.8);   // clamped up
  EXPECT_DOUBLE_EQ(contributions[1].quality, 0.9);   // untouched
  EXPECT_DOUBLE_EQ(contributions[2].quality, 0.95);  // clamped down
  EXPECT_DOUBLE_EQ(contributions[3].quality, 0.8);
  EXPECT_DOUBLE_EQ(contributions[4].quality, 0.95);
  EXPECT_EQ(stats.updates_trimmed, 2u);
}

TEST(QualityAggTest, KrumKeepsTheConsensusCluster) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kKrum;
  // Three honest qualities near 1 and two attackers near 0; m=2 keeps only
  // honest contributions.
  auto contributions = MakeContributions({1.0, 0.95, 0.9, 0.0, 0.05});
  AggregatorStats stats;
  ApplyQualityAggregation(config, contributions, &stats);
  ASSERT_EQ(contributions.size(), 2u);
  for (const auto& c : contributions) {
    EXPECT_GE(c.quality, 0.9);
  }
  EXPECT_EQ(stats.krum_rejections, 3u);
}

TEST(QualityAggTest, FedAvgAndNormClipPassThrough) {
  auto original = MakeContributions({0.3, 0.7, 1.0});
  for (AggregatorKind kind : {AggregatorKind::kFedAvg, AggregatorKind::kNormClip}) {
    AggregatorConfig config;
    config.kind = kind;
    auto contributions = original;
    AggregatorStats stats;
    ApplyQualityAggregation(config, contributions, &stats);
    ASSERT_EQ(contributions.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_DOUBLE_EQ(contributions[i].quality, original[i].quality);
    }
    EXPECT_EQ(stats.updates_trimmed, 0u);
  }
}

TEST(QualityAggTest, EmptyCohortIsANoOp) {
  AggregatorConfig config;
  config.kind = AggregatorKind::kMedian;
  std::vector<ClientContribution> contributions;
  AggregatorStats stats;
  stats.krum_rejections = 99;  // must be reset even on the empty path
  ApplyQualityAggregation(config, contributions, &stats);
  EXPECT_TRUE(contributions.empty());
  EXPECT_EQ(stats.krum_rejections, 0u);
}

}  // namespace
}  // namespace floatfl
