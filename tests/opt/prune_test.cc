#include "src/opt/prune.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/rng.h"

namespace floatfl {
namespace {

TEST(PruneTest, ZeroFractionIsNoOp) {
  std::vector<float> w = {1.0f, -2.0f, 3.0f};
  EXPECT_EQ(MagnitudePrune(w, 0.0), 0u);
  EXPECT_EQ(w, (std::vector<float>{1.0f, -2.0f, 3.0f}));
}

TEST(PruneTest, RemovesSmallestMagnitudes) {
  std::vector<float> w = {0.1f, -5.0f, 0.2f, 4.0f, -0.05f, 3.0f};
  const size_t zeroed = MagnitudePrune(w, 0.5);
  EXPECT_EQ(zeroed, 3u);
  EXPECT_FLOAT_EQ(w[0], 0.0f);
  EXPECT_FLOAT_EQ(w[1], -5.0f);
  EXPECT_FLOAT_EQ(w[2], 0.0f);
  EXPECT_FLOAT_EQ(w[3], 4.0f);
  EXPECT_FLOAT_EQ(w[4], 0.0f);
  EXPECT_FLOAT_EQ(w[5], 3.0f);
}

TEST(PruneTest, FullPruneZeroesEverything) {
  std::vector<float> w = {1.0f, 2.0f, 3.0f};
  MagnitudePrune(w, 1.0);
  EXPECT_DOUBLE_EQ(Sparsity(w), 1.0);
}

TEST(PruneTest, SparsityMatchesFraction) {
  Rng rng(3);
  std::vector<float> w(1000);
  for (auto& x : w) {
    x = static_cast<float>(rng.Normal());
  }
  for (double frac : {0.25, 0.5, 0.75}) {
    std::vector<float> copy = w;
    MagnitudePrune(copy, frac);
    EXPECT_NEAR(Sparsity(copy), frac, 0.01);
  }
}

TEST(PruneTest, SparseEncodingShrinksWithPruning) {
  Rng rng(5);
  std::vector<float> w(1000);
  for (auto& x : w) {
    x = static_cast<float>(rng.Normal());
  }
  const size_t dense_bytes = SparseEncodingBytes(w);
  MagnitudePrune(w, 0.75);
  const size_t sparse_bytes = SparseEncodingBytes(w);
  EXPECT_LT(sparse_bytes, dense_bytes / 3);
}

TEST(PruneTest, EmptyVector) {
  std::vector<float> w;
  EXPECT_EQ(MagnitudePrune(w, 0.5), 0u);
  EXPECT_EQ(Sparsity(w), 0.0);
}

TEST(PruneTest, SurvivorsKeepValues) {
  std::vector<float> w = {10.0f, 0.1f, -20.0f, 0.2f};
  MagnitudePrune(w, 0.5);
  EXPECT_FLOAT_EQ(w[0], 10.0f);
  EXPECT_FLOAT_EQ(w[2], -20.0f);
}

// The nth_element pruning the radix select replaced, with the max absolute
// error the real engine computed from a copy of the input.
size_t NthElementPrune(std::vector<float>& values, double fraction, double* max_error) {
  const std::vector<float> original = values;
  *max_error = 0.0;
  if (values.empty() || fraction == 0.0) {
    return 0;
  }
  const size_t k = static_cast<size_t>(std::llround(fraction * static_cast<double>(values.size())));
  if (k == 0) {
    return 0;
  }
  std::vector<float> magnitudes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    magnitudes[i] = std::fabs(values[i]);
  }
  std::vector<float> sorted = magnitudes;
  const size_t cutoff_index = std::min(k, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(cutoff_index),
                   sorted.end());
  const float threshold = sorted[cutoff_index];
  size_t zeroed = 0;
  for (size_t i = 0; i < values.size() && zeroed < k; ++i) {
    if (magnitudes[i] <= threshold && values[i] != 0.0f) {
      values[i] = 0.0f;
      ++zeroed;
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    *max_error = std::max(*max_error, std::fabs(static_cast<double>(original[i]) - values[i]));
  }
  return zeroed;
}

// Inputs of `n` values: plain, tied at a handful of magnitudes of both
// signs, holding signed zeros, subnormals, +-inf, or NaN.
std::vector<std::vector<float>> PruneInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> plain(n);
  for (float& x : plain) {
    x = static_cast<float>(rng.Normal());
  }
  std::vector<float> ties(n);
  for (float& x : ties) {
    x = static_cast<float>(static_cast<int>(rng.UniformInt(7)) - 3) * 0.25f;
  }
  std::vector<std::vector<float>> inputs = {plain, ties};
  for (const float special : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(), inf, -inf,
                              nan, -nan}) {
    for (const std::vector<float>& base : {plain, ties}) {
      std::vector<float> input = base;
      for (size_t i = 0; i < n; i += 3) {
        input[(i * 7 + 1) % n] = special;
      }
      inputs.push_back(input);
    }
  }
  return inputs;
}

TEST(PruneTest, RadixSelectPruneMatchesNthElementBitForBit) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{50826}}) {
    for (const std::vector<float>& input : PruneInputs(n, 13 + n)) {
      for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        std::vector<float> expected = input;
        double expected_error = 0.0;
        const size_t expected_zeroed = NthElementPrune(expected, fraction, &expected_error);
        std::vector<float> actual = input;
        float largest_zeroed = -1.0f;
        const size_t zeroed = MagnitudePrune(actual, fraction, largest_zeroed);
        EXPECT_EQ(std::memcmp(actual.data(), expected.data(), n * sizeof(float)), 0)
            << n << " values at " << fraction;
        EXPECT_EQ(zeroed, expected_zeroed) << n << " values at " << fraction;
        EXPECT_EQ(static_cast<double>(largest_zeroed), expected_error)
            << n << " values at " << fraction;
        std::vector<float> two_arg = input;
        EXPECT_EQ(MagnitudePrune(two_arg, fraction), expected_zeroed);
        EXPECT_EQ(std::memcmp(two_arg.data(), expected.data(), n * sizeof(float)), 0);
      }
    }
  }
}

}  // namespace
}  // namespace floatfl
