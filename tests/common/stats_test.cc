#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"

namespace floatfl {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(RunningStatTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStat s;
  double sum = 0.0;
  for (double x : xs) {
    s.Add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= xs.size();
  EXPECT_DOUBLE_EQ(s.Mean(), mean);
  EXPECT_NEAR(s.Variance(), var, 1e-12);
  EXPECT_NEAR(s.StdDev(), std::sqrt(var), 1e-12);
}

TEST(RunningStatTest, SingleValueHasZeroVariance) {
  RunningStat s;
  s.Add(5.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.Mean(), 5.0);
}

// Welford's update keeps the variance of samples far from zero, where a sum
// of squares would lose it to cancellation: 1e18 has an ulp of 128.
TEST(RunningStatTest, StableUnderLargeOffset) {
  RunningStat s;
  for (double x : {4.0, 7.0, 13.0, 16.0}) {
    s.Add(1e9 + x);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 1e9 + 10.0);
  EXPECT_NEAR(s.Variance(), 22.5, 1e-6);
}

TEST(PercentileTest, EmptyIsZero) { EXPECT_EQ(Percentile({}, 50.0), 0.0); }

TEST(PercentileTest, SingleValue) { EXPECT_EQ(Percentile({7.0}, 90.0), 7.0); }

TEST(PercentileTest, MedianAndExtremes) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
}

TEST(PercentileTest, Interpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 75.0), 7.5);
}

TEST(PercentileTest, MonotoneInP) {
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(rng.Normal(0.0, 10.0));
  }
  double prev = Percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = Percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(MeanTest, Basics) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
}

TEST(TopBottomFractionTest, TopTakesLargest) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(TopFractionMean(v, 0.10), 10.0);
  EXPECT_DOUBLE_EQ(BottomFractionMean(v, 0.10), 1.0);
  EXPECT_DOUBLE_EQ(TopFractionMean(v, 0.20), 9.5);
  EXPECT_DOUBLE_EQ(BottomFractionMean(v, 0.20), 1.5);
}

TEST(TopBottomFractionTest, TinyFractionStillUsesOneElement) {
  const std::vector<double> v = {1.0, 100.0};
  EXPECT_DOUBLE_EQ(TopFractionMean(v, 0.001), 100.0);
  EXPECT_DOUBLE_EQ(BottomFractionMean(v, 0.001), 1.0);
}

TEST(TopBottomFractionTest, EmptyIsZero) {
  EXPECT_EQ(TopFractionMean({}, 0.1), 0.0);
  EXPECT_EQ(BottomFractionMean({}, 0.1), 0.0);
}

// Property: bottom <= mean <= top for any sample.
class TopBottomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopBottomSweep, OrderingHolds) {
  Rng rng(GetParam());
  std::vector<double> v;
  for (int i = 0; i < 57; ++i) {
    v.push_back(rng.Normal(5.0, 3.0));
  }
  const double top = TopFractionMean(v, 0.1);
  const double bottom = BottomFractionMean(v, 0.1);
  const double mean = Mean(v);
  EXPECT_LE(bottom, mean + 1e-12);
  EXPECT_GE(top, mean - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopBottomSweep, ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace floatfl
