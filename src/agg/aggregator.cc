// The five aggregation rules, each a straight fixed-order loop: updates are
// reduced in the order the engine delivers them and every coordinate's
// arithmetic runs in that order (DESIGN.md §9).
#include "src/agg/aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/sim/thread_pool.h"

namespace floatfl {

namespace {

// Coordinates per task of the pooled weighted mean: 8 KB of output that
// stays in L1 while every update streams through it.
constexpr size_t kMeanBlock = 2048;

}  // namespace

std::vector<float> WeightedMeanAggregate(const std::vector<std::vector<float>>& parameter_sets,
                                         const std::vector<double>& weights, ThreadPool* pool) {
  FLOATFL_CHECK(!parameter_sets.empty());
  FLOATFL_CHECK(parameter_sets.size() == weights.size());
  double total = 0.0;
  for (double w : weights) {
    FLOATFL_CHECK(w >= 0.0);
    total += w;
  }
  FLOATFL_CHECK(total > 0.0);
  const size_t n = parameter_sets[0].size();
  for (const std::vector<float>& params : parameter_sets) {
    FLOATFL_CHECK(params.size() == n);
  }
  // Without workers the whole vector is one block, so the inline loop
  // streams each update once, front to back.
  const bool pooled = pool != nullptr && pool->num_workers() > 0;
  const size_t block_size = pooled ? kMeanBlock : std::max<size_t>(n, 1);
  std::vector<float> out(n, 0.0f);
  ParallelFor(pool, (n + block_size - 1) / block_size, [&](size_t block) {
    const size_t begin = block * block_size;
    const size_t end = std::min(n, begin + block_size);
    for (size_t s = 0; s < parameter_sets.size(); ++s) {
      const float w = static_cast<float>(weights[s] / total);
      const float* params = parameter_sets[s].data();
      for (size_t i = begin; i < end; ++i) {
        out[i] += w * params[i];
      }
    }
  });
  return out;
}

void ValidateAggregatorConfig(const AggregatorConfig& config) {
  FLOATFL_CHECK_MSG(config.trim_fraction >= 0.0 && config.trim_fraction < 0.5,
                    "aggregator.trim_fraction must be in [0, 0.5)");
  FLOATFL_CHECK_MSG(config.clip_norm > 0.0, "aggregator.clip_norm must be positive");
}

std::vector<float> Aggregator::Aggregate(const std::vector<std::vector<float>>& updates,
                                         const std::vector<double>& weights,
                                         const std::vector<float>& global,
                                         AggregatorStats* round_stats, ThreadPool* pool) {
  FLOATFL_CHECK(!updates.empty());
  FLOATFL_CHECK(updates.size() == weights.size());
  AggregatorStats stats;
  std::vector<float> out = DoAggregate(updates, weights, global, stats, pool);
  totals_.updates_clipped += stats.updates_clipped;
  totals_.krum_rejections += stats.krum_rejections;
  totals_.updates_trimmed += stats.updates_trimmed;
  if (round_stats != nullptr) {
    *round_stats = stats;
  }
  return out;
}

namespace {

class FedAvgAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& /*stats*/, ThreadPool* pool) override {
    return WeightedMeanAggregate(updates, weights, pool);
  }
};

// Coordinate-wise median: sort each coordinate's column of values.
class MedianAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& /*weights*/,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& /*stats*/, ThreadPool* /*pool*/) override {
    const size_t dim = updates[0].size();
    const size_t n = updates.size();
    std::vector<float> out(dim, 0.0f);
    std::vector<float> column(n);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t s = 0; s < n; ++s) {
        FLOATFL_CHECK(updates[s].size() == dim);
        column[s] = updates[s][i];
      }
      std::sort(column.begin(), column.end());
      out[i] = (n % 2 == 1) ? column[n / 2] : 0.5f * (column[n / 2 - 1] + column[n / 2]);
    }
    return out;
  }
};

// Coordinate-wise trimmed mean: sort each column, drop k values from each
// tail, and average the kept middle low-to-high in double.
class TrimmedMeanAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& /*weights*/,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& stats, ThreadPool* /*pool*/) override {
    const size_t dim = updates[0].size();
    const size_t n = updates.size();
    size_t k = static_cast<size_t>(config().trim_fraction * static_cast<double>(n));
    if (2 * k >= n) {
      k = (n - 1) / 2;
    }
    stats.updates_trimmed = 2 * k;
    std::vector<float> out(dim, 0.0f);
    std::vector<float> column(n);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t s = 0; s < n; ++s) {
        FLOATFL_CHECK(updates[s].size() == dim);
        column[s] = updates[s][i];
      }
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (size_t s = k; s < n - k; ++s) {
        sum += static_cast<double>(column[s]);
      }
      out[i] = static_cast<float>(sum / static_cast<double>(n - 2 * k));
    }
    return out;
  }
};

// (Multi-)Krum: score each update by the sum of squared L2 distances to its
// n - f - 2 nearest neighbours, keep the m lowest scores (ties by index),
// and take the weighted mean of the kept updates.
class KrumAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& /*global*/,
                                 AggregatorStats& stats, ThreadPool* pool) override {
    const size_t n = updates.size();
    if (n < 3) {
      // Too small a cohort for distance-based selection: fall back to the
      // plain weighted mean rather than rejecting arbitrarily.
      return WeightedMeanAggregate(updates, weights, pool);
    }
    size_t f = config().krum_assumed_byzantine;
    const size_t f_max = (n - 3) / 2;
    if (f == 0 || f > f_max) {
      f = f_max;
    }
    const size_t neighbours = std::max<size_t>(1, n - f - 2);
    size_t m = config().multi_krum_m;
    if (m == 0) {
      m = std::max<size_t>(1, n - f - 2);
    }
    m = std::min(m, n);

    std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        FLOATFL_CHECK(updates[b].size() == updates[a].size());
        double sq = 0.0;
        for (size_t i = 0; i < updates[a].size(); ++i) {
          const double d = static_cast<double>(updates[a][i]) - updates[b][i];
          sq += d * d;
        }
        dist[a][b] = sq;
        dist[b][a] = sq;
      }
    }
    std::vector<std::pair<double, size_t>> scored(n);
    std::vector<double> neighbour_dists(n - 1);
    for (size_t a = 0; a < n; ++a) {
      size_t count = 0;
      for (size_t b = 0; b < n; ++b) {
        if (b != a) {
          neighbour_dists[count++] = dist[a][b];
        }
      }
      std::sort(neighbour_dists.begin(), neighbour_dists.end());
      double score = 0.0;
      for (size_t j = 0; j < std::min(neighbours, count); ++j) {
        score += neighbour_dists[j];
      }
      scored[a] = {score, a};
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });

    std::vector<size_t> kept;
    kept.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      kept.push_back(scored[j].second);
    }
    // Weighted mean over the selected updates in their original (selection)
    // order, so the reduction order is independent of the score ordering.
    std::sort(kept.begin(), kept.end());
    std::vector<std::vector<float>> selected;
    std::vector<double> selected_weights;
    selected.reserve(m);
    selected_weights.reserve(m);
    for (size_t idx : kept) {
      selected.push_back(updates[idx]);
      selected_weights.push_back(weights[idx]);
    }
    stats.krum_rejections = n - m;
    return WeightedMeanAggregate(selected, selected_weights, pool);
  }
};

// Norm clipping: rescale every update whose delta from `global` exceeds
// clip_norm back onto the clip sphere, then take the weighted mean.
class NormClipAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

 protected:
  std::vector<float> DoAggregate(const std::vector<std::vector<float>>& updates,
                                 const std::vector<double>& weights,
                                 const std::vector<float>& global,
                                 AggregatorStats& stats, ThreadPool* pool) override {
    const size_t dim = updates[0].size();
    FLOATFL_CHECK(global.size() == dim);
    std::vector<std::vector<float>> clipped = updates;
    for (auto& update : clipped) {
      FLOATFL_CHECK(update.size() == dim);
      double sq = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        const double d = static_cast<double>(update[i]) - global[i];
        sq += d * d;
      }
      const double norm = std::sqrt(sq);
      if (norm > config().clip_norm) {
        const double scale = config().clip_norm / norm;
        for (size_t i = 0; i < dim; ++i) {
          const double d = static_cast<double>(update[i]) - global[i];
          update[i] = static_cast<float>(global[i] + scale * d);
        }
        ++stats.updates_clipped;
      }
    }
    return WeightedMeanAggregate(clipped, weights, pool);
  }
};

}  // namespace

std::unique_ptr<Aggregator> MakeAggregator(const AggregatorConfig& config) {
  ValidateAggregatorConfig(config);
  switch (config.kind) {
    case AggregatorKind::kMedian:
      return std::make_unique<MedianAggregator>(config);
    case AggregatorKind::kTrimmedMean:
      return std::make_unique<TrimmedMeanAggregator>(config);
    case AggregatorKind::kKrum:
      return std::make_unique<KrumAggregator>(config);
    case AggregatorKind::kNormClip:
      return std::make_unique<NormClipAggregator>(config);
    case AggregatorKind::kFedAvg:
    default:
      return std::make_unique<FedAvgAggregator>(config);
  }
}

}  // namespace floatfl
