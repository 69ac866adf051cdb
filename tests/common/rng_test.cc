#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace floatfl {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, LogNormalMedianApproximate) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.LogNormal(10.0, 0.5));
    EXPECT_GT(samples.back(), 0.0);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.5);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(3.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DiscardMatchesNextU64CallsAndKeepsTheNormalCache) {
  for (uint64_t n : {0u, 1u, 7u, 50432u}) {
    Rng discarded(61);
    Rng drawn(61);
    // One Normal() leaves the second Box-Muller value cached.
    EXPECT_EQ(discarded.Normal(), drawn.Normal());
    discarded.Discard(n);
    for (uint64_t i = 0; i < n; ++i) {
      drawn.NextU64();
    }
    EXPECT_EQ(discarded.SaveRaw(), drawn.SaveRaw()) << n;
    EXPECT_EQ(discarded.SaveRaw()[4], 1u) << n;
    EXPECT_EQ(discarded.Normal(), drawn.Normal()) << n;
    EXPECT_EQ(discarded.NextU64(), drawn.NextU64()) << n;
  }
}

TEST(RngTest, SkipMatchesNextU64CallsAndKeepsTheNormalCache) {
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{255},
                     uint64_t{256}, uint64_t{257}, uint64_t{50432}, (uint64_t{1} << 20) + 3}) {
    const Rng::Skip skip(n);
    Rng skipped(71);
    Rng drawn(71);
    // One Normal() leaves the second Box-Muller value cached.
    EXPECT_EQ(skipped.Normal(), drawn.Normal());
    skipped.Discard(skip);
    for (uint64_t i = 0; i < n; ++i) {
      drawn.NextU64();
    }
    EXPECT_EQ(skipped.SaveRaw(), drawn.SaveRaw()) << n;
    EXPECT_EQ(skipped.SaveRaw()[4], 1u) << n;
    EXPECT_EQ(skipped.Normal(), drawn.Normal()) << n;
    // One skip serves any number of streams, and applies again.
    skipped.Discard(skip);
    for (uint64_t i = 0; i < n; ++i) {
      drawn.NextU64();
    }
    EXPECT_EQ(skipped.SaveRaw(), drawn.SaveRaw()) << n;
  }
}

// The minimal polynomial of a GF(2) sequence, by Berlekamp–Massey: the
// connection polynomial C (C[0] = 1) of the shortest linear recurrence
// sum_i C[i] a[t - i] = 0 that generates `bits`, and its length L.
std::vector<int> BerlekampMassey(const std::vector<int>& bits, int* length) {
  const size_t n = bits.size();
  std::vector<int> c(n + 1, 0);
  std::vector<int> b(n + 1, 0);
  c[0] = 1;
  b[0] = 1;
  int l = 0;
  size_t shift = 1;
  for (size_t t = 0; t < n; ++t) {
    int discrepancy = bits[t];
    for (int i = 1; i <= l; ++i) {
      discrepancy ^= c[static_cast<size_t>(i)] & bits[t - static_cast<size_t>(i)];
    }
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> before = c;
    for (size_t i = 0; i + shift <= n; ++i) {
      c[i + shift] ^= b[i];
    }
    if (2 * static_cast<size_t>(l) <= t) {
      l = static_cast<int>(t) + 1 - l;
      b = before;
      shift = 1;
    } else {
      ++shift;
    }
  }
  *length = l;
  return c;
}

TEST(RngTest, CharacteristicPolynomialIsTheGeneratorsMinimalPolynomial) {
  // Any one state bit is a linear function of the state, so its sequence
  // obeys the update's characteristic polynomial; over twice the degree,
  // Berlekamp–Massey recovers it when it is also the minimal one.
  for (uint64_t seed : {uint64_t{1}, uint64_t{73}, uint64_t{0xC0FFEE}}) {
    Rng rng(seed);
    std::vector<int> bits(1024);
    for (int& bit : bits) {
      bit = static_cast<int>(rng.SaveRaw()[0] & 1);
      rng.NextU64();
    }
    int length = 0;
    const std::vector<int> connection = BerlekampMassey(bits, &length);
    ASSERT_EQ(length, 256) << seed;
    // P(x) = x^L C(1/x): x^j's coefficient is C[L - j], and C[0] = 1 is x^256's.
    std::array<uint64_t, 4> derived = {0, 0, 0, 0};
    for (size_t j = 0; j < 256; ++j) {
      if (connection[256 - j] != 0) {
        derived[j / 64] |= uint64_t{1} << (j % 64);
      }
    }
    EXPECT_EQ(derived, Rng::kCharacteristicPolynomial) << seed;
  }
}

TEST(RngTest, WeightedIndexWithItsTotalIsTheSameDraw) {
  const std::vector<double> weights = {0.3, -1.0, 0.0, 2.5, 1e-9, 0.7};
  const double total = Rng::WeightTotal(weights);
  EXPECT_EQ(total, 0.3 + 2.5 + 1e-9 + 0.7);
  Rng a(67);
  Rng b(67);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.WeightedIndex(weights), b.WeightedIndex(weights, total));
  }
  // The all-zero fallback draws a uniform index either way.
  const std::vector<double> zeros(5, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.WeightedIndex(zeros), b.WeightedIndex(zeros, Rng::WeightTotal(zeros)));
  }
  EXPECT_EQ(a.SaveRaw(), b.SaveRaw());
}

TEST(RngTest, WeightedIndexProportional) {
  Rng rng(23);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroIsUniform) {
  Rng rng(29);
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 9000.0, 1.0 / 3.0, 0.05);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(31);
  for (double alpha : {0.01, 0.1, 1.0, 10.0}) {
    const std::vector<double> d = rng.Dirichlet(alpha, 10);
    double sum = 0.0;
    for (double v : d) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletSmallAlphaIsSkewed) {
  Rng rng(37);
  double max_sum_small = 0.0;
  double max_sum_large = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const std::vector<double> small = rng.Dirichlet(0.05, 10);
    const std::vector<double> large = rng.Dirichlet(10.0, 10);
    max_sum_small += *std::max_element(small.begin(), small.end());
    max_sum_large += *std::max_element(large.begin(), large.end());
  }
  // Small alpha concentrates mass on few categories.
  EXPECT_GT(max_sum_small / trials, 0.7);
  EXPECT_LT(max_sum_large / trials, 0.3);
}

TEST(RngTest, GammaPositiveAndMeanMatchesShape) {
  Rng rng(41);
  for (double shape : {0.3, 1.0, 4.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      const double x = rng.Gamma(shape);
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum / n, shape, shape * 0.05 + 0.02);
  }
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(43);
  const std::vector<size_t> p = rng.Permutation(100);
  ASSERT_EQ(p.size(), 100u);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(47);
  EXPECT_TRUE(rng.Permutation(0).empty());
  const std::vector<size_t> one = rng.Permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(51);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

// Pearson correlation of two double streams.
double StreamCorrelation(Rng& a, Rng& b, int n) {
  double sa = 0.0, sb = 0.0, saa = 0.0, sbb = 0.0, sab = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = a.NextDouble();
    const double y = b.NextDouble();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  return cov / std::sqrt(va * vb);
}

TEST(RngTest, ForkedStreamsAreStatisticallyUncorrelated) {
  // Parent vs child, and sibling vs sibling: for n = 20000 i.i.d. uniforms
  // the sample correlation is ~N(0, 1/sqrt(n)); |r| < 0.05 is a 7-sigma
  // bound, so this only fails for genuinely correlated streams.
  const int n = 20000;
  for (uint64_t seed : {3ULL, 51ULL, 997ULL}) {
    Rng parent(seed);
    Rng child1 = parent.Fork();
    Rng child2 = parent.Fork();
    {
      Rng p(seed);
      Rng c = p.Fork();
      EXPECT_LT(std::fabs(StreamCorrelation(p, c, n)), 0.05) << "parent/child, seed " << seed;
    }
    EXPECT_LT(std::fabs(StreamCorrelation(child1, child2, n)), 0.05)
        << "siblings, seed " << seed;
  }
}

TEST(RngTest, ForkFromSameParentStateIsOrderDeterministic) {
  // Two parents in the same state must emit the same sequence of children,
  // and each child stream must be reproducible draw for draw.
  Rng a(1234);
  Rng b(1234);
  for (int fork = 0; fork < 10; ++fork) {
    Rng ca = a.Fork();
    Rng cb = b.Fork();
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(ca.NextU64(), cb.NextU64()) << "fork " << fork << " draw " << i;
    }
  }
  // And the parents remain in lockstep afterwards.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, ForkKeyedDoesNotAdvanceParent) {
  Rng parent(7);
  Rng untouched(7);
  (void)parent.ForkKeyed(1);
  (void)parent.ForkKeyed(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(parent.NextU64(), untouched.NextU64());
  }
}

TEST(RngTest, ForkKeyedIsDeterministicPerKey) {
  const Rng parent(99);
  Rng a = parent.ForkKeyed(Rng::StreamKey(3, 17));
  Rng b = parent.ForkKeyed(Rng::StreamKey(3, 17));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, ForkKeyedDistinctKeysGiveUncorrelatedStreams) {
  const Rng parent(99);
  const int n = 20000;
  // Adjacent keys along both dimensions of the (round, client) grid.
  const std::pair<uint64_t, uint64_t> key_pairs[] = {
      {Rng::StreamKey(0, 0), Rng::StreamKey(0, 1)},
      {Rng::StreamKey(0, 0), Rng::StreamKey(1, 0)},
      {Rng::StreamKey(5, 7), Rng::StreamKey(5, 8)},
      {Rng::StreamKey(5, 7), Rng::StreamKey(6, 7)},
  };
  for (const auto& [k1, k2] : key_pairs) {
    Rng a = parent.ForkKeyed(k1);
    Rng b = parent.ForkKeyed(k2);
    EXPECT_LT(std::fabs(StreamCorrelation(a, b, n)), 0.05) << "keys " << k1 << ", " << k2;
  }
}

TEST(RngTest, ForkKeyedDependsOnParentState) {
  const Rng p1(1);
  const Rng p2(2);
  Rng a = p1.ForkKeyed(42);
  Rng b = p2.ForkKeyed(42);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, StreamKeyIsInjectiveOnSmallGrid) {
  std::set<uint64_t> keys;
  for (uint64_t round = 0; round < 50; ++round) {
    for (uint64_t client = 0; client < 50; ++client) {
      keys.insert(Rng::StreamKey(round, client));
    }
  }
  EXPECT_EQ(keys.size(), 2500u);
}

// Property sweep: every distribution stays in its support across seeds.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, DistributionsStayInSupport) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(rng.NextDouble(), 0.0);
    EXPECT_LT(rng.NextDouble(), 1.0);
    EXPECT_GT(rng.Exponential(2.0), 0.0);
    EXPECT_GT(rng.LogNormal(5.0, 1.0), 0.0);
    EXPECT_GT(rng.Gamma(0.5), 0.0);
    EXPECT_LT(rng.UniformInt(13), 13u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(uint64_t{0}, uint64_t{1}, uint64_t{42}, uint64_t{0xFFFFFFFFFFFFFFFF},
                                           uint64_t{0xDEADBEEF}));

}  // namespace
}  // namespace floatfl
