// Shape sweeps and algebraic properties of the aggregation rules (DESIGN.md
// §9). Every rule is checked bit-for-bit against a per-coordinate oracle
// written column-major (the production loops are client-major), across
// cohort sizes each rule special-cases and dimensions with odd tails. The
// remaining tests pin properties that hold exactly in floating point:
// order-statistic rules ignore update order, weights are relative, a
// zero-weight update has no influence, and malformed input aborts.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/agg/aggregator.h"
#include "src/common/rng.h"

namespace floatfl {
namespace {

using Updates = std::vector<std::vector<float>>;

Updates MakeUpdates(size_t n, size_t dim, uint64_t seed, double spread = 1.0) {
  Rng rng(seed);
  Updates updates(n, std::vector<float>(dim));
  for (auto& u : updates) {
    for (float& x : u) {
      x = static_cast<float>(rng.Normal(0.0, spread));
    }
  }
  return updates;
}

std::vector<double> MakeWeights(size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = rng.Uniform(1.0, 100.0);
  }
  return weights;
}

std::vector<float> MakeGlobal(size_t dim, uint64_t seed) {
  Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
  std::vector<float> global(dim);
  for (float& g : global) {
    g = static_cast<float>(rng.Normal(0.0, 0.5));
  }
  return global;
}

// Single update, the Krum small-cohort fallback (n < 3), even and odd
// medians, and dimensions from one coordinate to several thousand with
// non-power-of-two tails.
struct Shape {
  size_t n;
  size_t dim;
};
const Shape kShapes[] = {
    {1, 1}, {2, 7}, {3, 17}, {4, 64}, {5, 333}, {6, 2048}, {7, 2049}, {9, 4096}, {12, 5000},
};

std::vector<float> Column(const Updates& updates, size_t i) {
  std::vector<float> column;
  column.reserve(updates.size());
  for (const auto& u : updates) {
    column.push_back(u[i]);
  }
  return column;
}

std::vector<float> OracleWeightedMean(const Updates& updates, const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<float> out(updates[0].size());
  for (size_t i = 0; i < out.size(); ++i) {
    float acc = 0.0f;
    for (size_t s = 0; s < updates.size(); ++s) {
      acc += static_cast<float>(weights[s] / total) * updates[s][i];
    }
    out[i] = acc;
  }
  return out;
}

std::vector<float> OracleMedian(const Updates& updates) {
  const size_t n = updates.size();
  std::vector<float> out(updates[0].size());
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<float> column = Column(updates, i);
    std::nth_element(column.begin(), column.begin() + n / 2, column.end());
    const float upper = column[n / 2];
    if (n % 2 == 1) {
      out[i] = upper;
    } else {
      const float lower = *std::max_element(column.begin(), column.begin() + n / 2);
      out[i] = 0.5f * (lower + upper);
    }
  }
  return out;
}

size_t TrimCount(double trim_fraction, size_t n) {
  const size_t k = static_cast<size_t>(trim_fraction * static_cast<double>(n));
  return 2 * k >= n ? (n - 1) / 2 : k;
}

std::vector<float> OracleTrimmedMean(const Updates& updates, double trim_fraction) {
  const size_t n = updates.size();
  const size_t k = TrimCount(trim_fraction, n);
  std::vector<float> out(updates[0].size());
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<float> column = Column(updates, i);
    std::sort(column.begin(), column.end());
    const double sum = std::accumulate(column.begin() + static_cast<std::ptrdiff_t>(k),
                                       column.end() - static_cast<std::ptrdiff_t>(k), 0.0);
    out[i] = static_cast<float>(sum / static_cast<double>(n - 2 * k));
  }
  return out;
}

// Multi-Krum with the knob derivation documented in aggregator.cc. Returns
// the aggregate and the number of rejected updates.
std::pair<std::vector<float>, size_t> OracleKrum(const AggregatorConfig& config,
                                                 const Updates& updates,
                                                 const std::vector<double>& weights) {
  const size_t n = updates.size();
  if (n < 3) {
    return {OracleWeightedMean(updates, weights), 0};
  }
  const size_t f_max = (n - 3) / 2;
  const size_t f = (config.krum_assumed_byzantine == 0 || config.krum_assumed_byzantine > f_max)
                       ? f_max
                       : config.krum_assumed_byzantine;
  const size_t neighbours = std::max<size_t>(1, n - f - 2);
  const size_t m = std::min(n, config.multi_krum_m == 0 ? neighbours : config.multi_krum_m);

  std::vector<std::pair<double, size_t>> scored;
  for (size_t a = 0; a < n; ++a) {
    std::vector<double> dists;
    for (size_t b = 0; b < n; ++b) {
      if (b == a) {
        continue;
      }
      // (x - y)^2 == (y - x)^2 exactly, so the pair order is irrelevant.
      double sq = 0.0;
      for (size_t i = 0; i < updates[a].size(); ++i) {
        const double d = static_cast<double>(updates[a][i]) - updates[b][i];
        sq += d * d;
      }
      dists.push_back(sq);
    }
    std::partial_sort(dists.begin(), dists.begin() + static_cast<std::ptrdiff_t>(neighbours),
                      dists.end());
    double score = 0.0;
    for (size_t j = 0; j < neighbours; ++j) {
      score += dists[j];
    }
    scored.emplace_back(score, a);
  }
  // Lowest score first, ties by update index.
  std::sort(scored.begin(), scored.end());
  std::vector<size_t> kept;
  for (size_t j = 0; j < m; ++j) {
    kept.push_back(scored[j].second);
  }
  std::sort(kept.begin(), kept.end());
  Updates selected;
  std::vector<double> selected_weights;
  for (size_t idx : kept) {
    selected.push_back(updates[idx]);
    selected_weights.push_back(weights[idx]);
  }
  return {OracleWeightedMean(selected, selected_weights), n - m};
}

// Clips every delta from `global` longer than clip_norm onto the clip
// sphere, then takes the weighted mean. Returns the aggregate and the
// number of clipped updates.
std::pair<std::vector<float>, size_t> OracleNormClip(double clip_norm, const Updates& updates,
                                                     const std::vector<double>& weights,
                                                     const std::vector<float>& global) {
  Updates clipped = updates;
  size_t count = 0;
  for (auto& u : clipped) {
    double sq = 0.0;
    for (size_t i = 0; i < u.size(); ++i) {
      const double d = static_cast<double>(u[i]) - global[i];
      sq += d * d;
    }
    const double norm = std::sqrt(sq);
    if (norm <= clip_norm) {
      continue;
    }
    ++count;
    for (size_t i = 0; i < u.size(); ++i) {
      const double d = static_cast<double>(u[i]) - global[i];
      u[i] = static_cast<float>(global[i] + (clip_norm / norm) * d);
    }
  }
  return {OracleWeightedMean(clipped, weights), count};
}

std::vector<float> Agg(const AggregatorConfig& config, const Updates& updates,
                       const std::vector<double>& weights, const std::vector<float>& global,
                       AggregatorStats* stats = nullptr) {
  return MakeAggregator(config)->Aggregate(updates, weights, global, stats);
}

AggregatorConfig ConfigFor(AggregatorKind kind) {
  AggregatorConfig config;
  config.kind = kind;
  return config;
}

TEST(AggregatorShapeTest, WeightedMeanMatchesColumnOracle) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const Updates updates = MakeUpdates(shape.n, shape.dim, seed);
      const std::vector<double> weights = MakeWeights(shape.n, seed);
      ASSERT_EQ(OracleWeightedMean(updates, weights), WeightedMeanAggregate(updates, weights))
          << "n=" << shape.n << " dim=" << shape.dim << " seed=" << seed;
    }
  }
}

TEST(AggregatorShapeTest, FedAvgMatchesColumnOracle) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const Updates updates = MakeUpdates(shape.n, shape.dim, seed);
      const std::vector<double> weights = MakeWeights(shape.n, seed);
      AggregatorStats stats;
      ASSERT_EQ(OracleWeightedMean(updates, weights),
                Agg(ConfigFor(AggregatorKind::kFedAvg), updates, weights,
                    MakeGlobal(shape.dim, seed), &stats))
          << "n=" << shape.n << " dim=" << shape.dim << " seed=" << seed;
      EXPECT_EQ(stats.updates_clipped + stats.krum_rejections + stats.updates_trimmed, 0u);
    }
  }
}

TEST(AggregatorShapeTest, MedianMatchesColumnOracle) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const Updates updates = MakeUpdates(shape.n, shape.dim, seed);
      ASSERT_EQ(OracleMedian(updates),
                Agg(ConfigFor(AggregatorKind::kMedian), updates, MakeWeights(shape.n, seed),
                    MakeGlobal(shape.dim, seed)))
          << "n=" << shape.n << " dim=" << shape.dim << " seed=" << seed;
    }
  }
}

TEST(AggregatorShapeTest, TrimmedMeanMatchesColumnOracle) {
  for (double trim : {0.0, 0.1, 0.2, 0.45}) {
    AggregatorConfig config = ConfigFor(AggregatorKind::kTrimmedMean);
    config.trim_fraction = trim;
    for (const Shape& shape : kShapes) {
      const Updates updates = MakeUpdates(shape.n, shape.dim, /*seed=*/5);
      AggregatorStats stats;
      ASSERT_EQ(OracleTrimmedMean(updates, trim),
                Agg(config, updates, MakeWeights(shape.n, 5), MakeGlobal(shape.dim, 5), &stats))
          << "trim=" << trim << " n=" << shape.n << " dim=" << shape.dim;
      EXPECT_EQ(stats.updates_trimmed, 2 * TrimCount(trim, shape.n));
    }
  }
}

TEST(AggregatorShapeTest, KrumMatchesScoreOracle) {
  const auto check = [](const AggregatorConfig& config, const Shape& shape, uint64_t seed) {
    const Updates updates = MakeUpdates(shape.n, shape.dim, seed);
    const std::vector<double> weights = MakeWeights(shape.n, seed);
    const auto [expected, rejected] = OracleKrum(config, updates, weights);
    AggregatorStats stats;
    ASSERT_EQ(expected, Agg(config, updates, weights, MakeGlobal(shape.dim, seed), &stats))
        << "n=" << shape.n << " dim=" << shape.dim << " seed=" << seed;
    EXPECT_EQ(stats.krum_rejections, rejected);
  };
  AggregatorConfig config = ConfigFor(AggregatorKind::kKrum);
  for (const Shape& shape : kShapes) {
    for (uint64_t seed : {1u, 4u}) {
      check(config, shape, seed);
    }
  }
  // Explicit f and m exercise the non-derived selection bounds.
  config.krum_assumed_byzantine = 2;
  config.multi_krum_m = 3;
  check(config, {9, 4096}, /*seed=*/6);
  check(config, {12, 333}, /*seed=*/7);
}

TEST(AggregatorShapeTest, NormClipMatchesClipThenMeanOracle) {
  // A small radius clips essentially every update, the largest none; the
  // wide spread makes the rescaled deltas large.
  for (double clip : {0.5, 10.0, 1e6}) {
    AggregatorConfig config = ConfigFor(AggregatorKind::kNormClip);
    config.clip_norm = clip;
    for (const Shape& shape : kShapes) {
      const Updates updates = MakeUpdates(shape.n, shape.dim, /*seed=*/8, /*spread=*/3.0);
      const std::vector<double> weights = MakeWeights(shape.n, 8);
      const std::vector<float> global = MakeGlobal(shape.dim, 8);
      const auto [expected, clipped] = OracleNormClip(clip, updates, weights, global);
      AggregatorStats stats;
      ASSERT_EQ(expected, Agg(config, updates, weights, global, &stats))
          << "clip=" << clip << " n=" << shape.n << " dim=" << shape.dim;
      EXPECT_EQ(stats.updates_clipped, clipped);
    }
  }
}

// Exact duplicates tie Krum scores and median candidates; ties must resolve
// by update index, exactly as the oracles do.
TEST(AggregatorShapeTest, ExactTiesMatchOracles) {
  const size_t n = 6;
  const size_t dim = 2500;
  Updates updates = MakeUpdates(n, dim, /*seed=*/9);
  updates[3] = updates[1];
  updates[5] = updates[1];
  const std::vector<double> weights = MakeWeights(n, 9);
  const std::vector<float> global = MakeGlobal(dim, 9);

  const AggregatorConfig defaults;
  EXPECT_EQ(OracleMedian(updates),
            Agg(ConfigFor(AggregatorKind::kMedian), updates, weights, global));
  EXPECT_EQ(OracleTrimmedMean(updates, defaults.trim_fraction),
            Agg(ConfigFor(AggregatorKind::kTrimmedMean), updates, weights, global));
  const AggregatorConfig krum = ConfigFor(AggregatorKind::kKrum);
  AggregatorStats stats;
  EXPECT_EQ(OracleKrum(krum, updates, weights).first, Agg(krum, updates, weights, global, &stats));
  EXPECT_EQ(stats.krum_rejections, OracleKrum(krum, updates, weights).second);
  EXPECT_EQ(OracleNormClip(defaults.clip_norm, updates, weights, global).first,
            Agg(ConfigFor(AggregatorKind::kNormClip), updates, weights, global));
}

// Median and trimmed mean sort each coordinate's column, so the order in
// which the engine delivers updates cannot change a single bit.
TEST(AggregatorPropertyTest, OrderStatisticRulesIgnoreUpdateOrder) {
  const Updates updates = MakeUpdates(9, 777, /*seed=*/11);
  const std::vector<double> weights = MakeWeights(9, 11);
  const std::vector<float> global = MakeGlobal(777, 11);
  Updates reversed(updates.rbegin(), updates.rend());
  Updates rotated = updates;
  std::rotate(rotated.begin(), rotated.begin() + 4, rotated.end());
  AggregatorConfig trimmed = ConfigFor(AggregatorKind::kTrimmedMean);
  trimmed.trim_fraction = 0.2;
  for (const AggregatorConfig& config : {ConfigFor(AggregatorKind::kMedian), trimmed}) {
    const std::vector<float> expected = Agg(config, updates, weights, global);
    EXPECT_EQ(expected, Agg(config, reversed, weights, global));
    EXPECT_EQ(expected, Agg(config, rotated, weights, global));
  }
}

// A cohort that agrees exactly is a fixed point of the order-statistic
// rules: the median picks the shared value and the trimmed mean sums copies
// of a float in double, which is exact.
TEST(AggregatorPropertyTest, OrderStatisticRulesFixUnanimousCohort) {
  const std::vector<float> shared = MakeUpdates(1, 300, /*seed=*/12)[0];
  const Updates updates(7, shared);
  const std::vector<double> weights = MakeWeights(7, 12);
  AggregatorConfig trimmed = ConfigFor(AggregatorKind::kTrimmedMean);
  trimmed.trim_fraction = 0.3;
  EXPECT_EQ(shared, Agg(ConfigFor(AggregatorKind::kMedian), updates, weights, shared));
  EXPECT_EQ(shared, Agg(trimmed, updates, weights, shared));
  EXPECT_EQ(shared, Agg(ConfigFor(AggregatorKind::kTrimmedMean), updates, weights, shared));
}

// Weights are relative: scaling all of them by a power of two scales every
// partial sum exactly, so each normalized weight, and hence the aggregate,
// is unchanged to the bit.
TEST(AggregatorPropertyTest, WeightedRulesIgnorePowerOfTwoWeightScaling) {
  const Updates updates = MakeUpdates(8, 513, /*seed=*/13, /*spread=*/2.0);
  const std::vector<double> weights = MakeWeights(8, 13);
  std::vector<double> scaled = weights;
  for (double& w : scaled) {
    w *= 8.0;
  }
  const std::vector<float> global = MakeGlobal(513, 13);
  AggregatorConfig clip = ConfigFor(AggregatorKind::kNormClip);
  clip.clip_norm = 5.0;
  for (const AggregatorConfig& config :
       {ConfigFor(AggregatorKind::kFedAvg), ConfigFor(AggregatorKind::kKrum), clip}) {
    EXPECT_EQ(Agg(config, updates, weights, global), Agg(config, updates, scaled, global))
        << "kind=" << static_cast<uint32_t>(config.kind);
  }
}

// A zero-weight update contributes +0 to every coordinate of a weighted
// rule, however far it lies from the rest.
TEST(AggregatorPropertyTest, ZeroWeightUpdateHasNoInfluence) {
  const Updates updates = MakeUpdates(5, 250, /*seed=*/14);
  const std::vector<double> weights = MakeWeights(5, 14);
  const std::vector<float> global = MakeGlobal(250, 14);
  Updates with_outlier = updates;
  with_outlier.insert(with_outlier.begin() + 2, std::vector<float>(250, 1e4f));
  std::vector<double> outlier_weights = weights;
  outlier_weights.insert(outlier_weights.begin() + 2, 0.0);
  AggregatorConfig clip = ConfigFor(AggregatorKind::kNormClip);
  clip.clip_norm = 3.0;
  for (const AggregatorConfig& config : {ConfigFor(AggregatorKind::kFedAvg), clip}) {
    EXPECT_EQ(Agg(config, updates, weights, global),
              Agg(config, with_outlier, outlier_weights, global))
        << "kind=" << static_cast<uint32_t>(config.kind);
  }
}

// The documented Multi-Krum derivation with both knobs at 0:
// f = (n - 3) / 2 and m = max(1, n - f - 2), so n - m updates are rejected.
TEST(AggregatorPropertyTest, KrumRejectionCountFollowsDerivedBounds) {
  const std::pair<size_t, size_t> kExpected[] = {
      {1, 0}, {2, 0}, {3, 2}, {4, 2}, {5, 3}, {6, 3}, {7, 4}, {8, 4}, {9, 5}, {12, 6},
  };
  for (const auto& [n, rejected] : kExpected) {
    AggregatorStats stats;
    Agg(ConfigFor(AggregatorKind::kKrum), MakeUpdates(n, 16, /*seed=*/15), MakeWeights(n, 15),
        MakeGlobal(16, 15), &stats);
    EXPECT_EQ(stats.krum_rejections, rejected) << "n=" << n;
  }
}

TEST(AggregatorDeathTest, RaggedUpdatesAbort) {
  const Updates ragged = {{1.0f, 2.0f, 3.0f}, {1.0f, 2.0f}, {0.5f, 1.5f, 2.5f}};
  const std::vector<double> weights = {1.0, 1.0, 1.0};
  const std::vector<float> global = {0.0f, 0.0f, 0.0f};
  for (AggregatorKind kind : {AggregatorKind::kFedAvg, AggregatorKind::kMedian,
                              AggregatorKind::kTrimmedMean, AggregatorKind::kKrum,
                              AggregatorKind::kNormClip}) {
    EXPECT_DEATH(Agg(ConfigFor(kind), ragged, weights, global), "FLOATFL_CHECK failed")
        << "kind=" << static_cast<uint32_t>(kind);
  }
  EXPECT_DEATH(Agg(ConfigFor(AggregatorKind::kNormClip), {{1.0f, 2.0f}}, {1.0}, global),
               "global.size");
}

TEST(AggregatorDeathTest, MalformedWeightsAbort) {
  const Updates updates = {{1.0f}, {2.0f}};
  const std::vector<float> global = {0.0f};
  EXPECT_DEATH(WeightedMeanAggregate(updates, {1.0}), "weights.size");
  EXPECT_DEATH(WeightedMeanAggregate(updates, {1.0, -0.5}), "w >= 0.0");
  EXPECT_DEATH(WeightedMeanAggregate(updates, {0.0, 0.0}), "total > 0.0");
  EXPECT_DEATH(WeightedMeanAggregate({}, {}), "empty");
  EXPECT_DEATH(Agg(ConfigFor(AggregatorKind::kMedian), updates, {1.0}, global), "weights.size");
  EXPECT_DEATH(Agg(ConfigFor(AggregatorKind::kMedian), {}, {}, global), "empty");
}

}  // namespace
}  // namespace floatfl
