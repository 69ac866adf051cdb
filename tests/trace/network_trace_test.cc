#include "src/trace/network_trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/stats.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

TEST(NetworkTraceTest, BandwidthAlwaysPositive) {
  NetworkTrace trace(NetworkKind::kFourG, 1);
  for (double t = 0.0; t < 36000.0; t += 10.0) {
    EXPECT_GT(trace.BandwidthMbpsAt(t), 0.0);
  }
}

TEST(NetworkTraceTest, DeterministicForSeed) {
  NetworkTrace a(NetworkKind::kFiveG, 42);
  NetworkTrace b(NetworkKind::kFiveG, 42);
  for (double t = 0.0; t < 3600.0; t += 30.0) {
    EXPECT_DOUBLE_EQ(a.BandwidthMbpsAt(t), b.BandwidthMbpsAt(t));
  }
}

TEST(NetworkTraceTest, FiveGTypicallyFasterThanFourG) {
  // Across a population of seeds, median 5G bandwidth must clearly exceed 4G.
  std::vector<double> four_g;
  std::vector<double> five_g;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    NetworkTrace f4(NetworkKind::kFourG, seed);
    NetworkTrace f5(NetworkKind::kFiveG, seed + 1000);
    for (double t = 0.0; t < 7200.0; t += 60.0) {
      four_g.push_back(f4.BandwidthMbpsAt(t));
      five_g.push_back(f5.BandwidthMbpsAt(t));
    }
  }
  EXPECT_GT(Percentile(five_g, 50.0), 3.0 * Percentile(four_g, 50.0));
}

TEST(NetworkTraceTest, TemporallyCorrelated) {
  // Consecutive samples must be far more similar than distant ones
  // (the whole point of replacing the real traces with an AR process).
  NetworkTrace trace(NetworkKind::kFourG, 7);
  std::vector<double> series;
  for (double t = 0.0; t < 72000.0; t += 10.0) {
    series.push_back(trace.BandwidthMbpsAt(t));
  }
  double adjacent_diff = 0.0;
  double distant_diff = 0.0;
  const size_t lag = 300;
  for (size_t i = 0; i + lag < series.size(); ++i) {
    adjacent_diff += std::abs(series[i + 1] - series[i]);
    distant_diff += std::abs(series[i + lag] - series[i]);
  }
  EXPECT_LT(adjacent_diff, distant_diff);
}

TEST(NetworkTraceTest, ExperiencesOutages) {
  // Over a long horizon a 4G client should occasionally see near-zero rates.
  NetworkTrace trace(NetworkKind::kFourG, 12);
  double min_seen = 1e18;
  for (double t = 0.0; t < 7.0 * 86400.0; t += 10.0) {
    min_seen = std::min(min_seen, trace.BandwidthMbpsAt(t));
  }
  EXPECT_LT(min_seen, 0.5);
}

TEST(NetworkTraceDeathTest, BackwardsQueryAborts) {
  // The monotonic-query contract: a regressing query would silently alias
  // one client's look-ahead into another's bandwidth path, so it aborts.
  NetworkTrace trace(NetworkKind::kFourG, 9);
  trace.BandwidthMbpsAt(1000.0);
  EXPECT_DEATH(trace.BandwidthMbpsAt(500.0), "monotonic");
}

TEST(NetworkTraceTest, RepeatedQueryAtSameTimeAllowed) {
  // Equal-time re-queries are fine (several transfers can start at the same
  // simulated instant); only strictly backwards queries violate the contract.
  NetworkTrace trace(NetworkKind::kFourG, 9);
  const double at_1000 = trace.BandwidthMbpsAt(1000.0);
  EXPECT_DOUBLE_EQ(trace.BandwidthMbpsAt(1000.0), at_1000);
}

TEST(NetworkTraceTest, ConstantTraceIsPinned) {
  NetworkTrace trace = NetworkTrace::Constant(12.5);
  EXPECT_DOUBLE_EQ(trace.NominalMbps(), 12.5);
  for (double t = 0.0; t < 86400.0; t += 97.0) {
    EXPECT_DOUBLE_EQ(trace.BandwidthMbpsAt(t), 12.5);
  }
}

TEST(NetworkTraceTest, ConstantZeroTraceStaysZero) {
  // Degenerate zero-bandwidth client for deadline-calibration edge cases.
  NetworkTrace trace = NetworkTrace::Constant(0.0);
  EXPECT_DOUBLE_EQ(trace.NominalMbps(), 0.0);
  EXPECT_DOUBLE_EQ(trace.BandwidthMbpsAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.BandwidthMbpsAt(3600.0), 0.0);
}

TEST(NetworkTraceTest, OutageRegimeEnteredAndRecovered) {
  // The regime-switching process must actually visit the outage regime
  // (near-zero bandwidth) and come back: over a week a 4G client sees both
  // sub-0.5 Mbps samples and, afterwards, samples above half nominal again.
  NetworkTrace trace(NetworkKind::kFourG, 12);
  const double nominal = trace.NominalMbps();
  bool saw_outage = false;
  bool recovered_after_outage = false;
  for (double t = 0.0; t < 7.0 * 86400.0; t += 10.0) {
    const double bw = trace.BandwidthMbpsAt(t);
    if (bw < 0.5) {
      saw_outage = true;
    } else if (saw_outage && bw > 0.5 * nominal) {
      recovered_after_outage = true;
      break;
    }
  }
  EXPECT_TRUE(saw_outage);
  EXPECT_TRUE(recovered_after_outage);
}

TEST(NetworkTraceTest, OutagesAreRareInFiveG) {
  // Outages must be the exception, not the rule: the fraction of near-zero
  // samples over a long 5G horizon stays small.
  NetworkTrace trace(NetworkKind::kFiveG, 3);
  size_t outage_samples = 0;
  size_t total = 0;
  for (double t = 0.0; t < 7.0 * 86400.0; t += 10.0) {
    if (trace.BandwidthMbpsAt(t) < 1.0) {
      ++outage_samples;
    }
    ++total;
  }
  EXPECT_LT(static_cast<double>(outage_samples), 0.10 * static_cast<double>(total));
}

TEST(NetworkTraceTest, NominalWithinSaneRange) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    NetworkTrace f4(NetworkKind::kFourG, seed);
    EXPECT_GT(f4.NominalMbps(), 1.0);
    EXPECT_LT(f4.NominalMbps(), 200.0);
    NetworkTrace f5(NetworkKind::kFiveG, seed);
    EXPECT_GT(f5.NominalMbps(), 10.0);
    EXPECT_LT(f5.NominalMbps(), 2000.0);
  }
}

// A trace restored to an earlier checkpoint and queried again at a time it
// already reached before the restore must catch up from the restored state
// and reproduce the original value exactly.
TEST(NetworkTraceTest, RestoreThenRequeryCatchesUp) {
  NetworkTrace trace(NetworkKind::kFourG, 75);
  (void)trace.BandwidthMbpsAt(100.0);
  CheckpointWriter w;
  trace.SaveState(w);
  const double at_200 = trace.BandwidthMbpsAt(200.0);
  CheckpointReader r(w.buffer());
  trace.LoadState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(at_200, trace.BandwidthMbpsAt(200.0));
}

// Several transfers can start at one simulated instant, so engines re-query
// a trace at an unchanged time. Such a re-query must be a no-op: the same
// value, and the same serialized state as a twin that saw each time once.
TEST(NetworkTraceTest, RepeatedQueriesMatchDistinctQueries) {
  for (NetworkKind kind : {NetworkKind::kFourG, NetworkKind::kFiveG}) {
    NetworkTrace repeated(kind, 71);
    NetworkTrace distinct(kind, 71);
    for (double t : {0.0, 12.5, 40.0, 41.0, 300.0, 7200.0}) {
      const double first = repeated.BandwidthMbpsAt(t);
      EXPECT_EQ(first, repeated.BandwidthMbpsAt(t)) << "t=" << t;
      EXPECT_EQ(first, repeated.BandwidthMbpsAt(t)) << "t=" << t;
      EXPECT_EQ(first, distinct.BandwidthMbpsAt(t)) << "t=" << t;
    }
    CheckpointWriter repeated_state;
    repeated.SaveState(repeated_state);
    CheckpointWriter distinct_state;
    distinct.SaveState(distinct_state);
    EXPECT_EQ(repeated_state.buffer(), distinct_state.buffer());
  }
}

// One query that catches up many steps derives the bandwidth once, after the
// last step. It must match, bit for bit, a twin queried at every step
// boundary (which derives it after each step), in value and in serialized
// state. In 2000 steps the twin's path visits the good regime and a bad one,
// and both traces stay short of the 4096-step fast-forward.
TEST(NetworkTraceTest, LongCatchUpMatchesStepByStep) {
  constexpr int kSteps = 2000;
  constexpr double kStepS = 10.0;
  for (NetworkKind kind : {NetworkKind::kFourG, NetworkKind::kFiveG}) {
    NetworkTrace caught_up(kind, 78);
    NetworkTrace stepwise(kind, 78);
    const double nominal = stepwise.NominalMbps();
    bool left_good_regime = false;
    bool in_good_regime = false;
    double last = 0.0;
    for (int k = 1; k <= kSteps; ++k) {
      last = stepwise.BandwidthMbpsAt(k * kStepS);
      left_good_regime = left_good_regime || last < 0.02 * nominal;
      in_good_regime = in_good_regime || last > 0.5 * nominal;
    }
    EXPECT_TRUE(left_good_regime);
    EXPECT_TRUE(in_good_regime);
    EXPECT_EQ(last, caught_up.BandwidthMbpsAt(kSteps * kStepS));
    CheckpointWriter caught_up_state;
    caught_up.SaveState(caught_up_state);
    CheckpointWriter stepwise_state;
    stepwise.SaveState(stepwise_state);
    EXPECT_EQ(caught_up_state.buffer(), stepwise_state.buffer());
  }
}

// A Constant() trace never steps, so no catch-up derives a value for it:
// Constant(0) stays 0 across a long gap and across the fast-forward.
TEST(NetworkTraceTest, ConstantZeroStaysZeroAfterLongCatchUp) {
  NetworkTrace trace = NetworkTrace::Constant(0.0);
  EXPECT_EQ(trace.BandwidthMbpsAt(2000 * 10.0), 0.0);
  EXPECT_EQ(trace.BandwidthMbpsAt(30.0 * 86400.0), 0.0);
}

}  // namespace
}  // namespace floatfl
