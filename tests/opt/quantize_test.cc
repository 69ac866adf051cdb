#include "src/opt/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/rng.h"

namespace floatfl {
namespace {

std::vector<float> RandomWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(n);
  for (auto& x : w) {
    x = static_cast<float>(rng.Normal(0.0, 0.1));
  }
  return w;
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfScale) {
  for (int bits : {8, 16}) {
    std::vector<float> w = RandomWeights(1000, 3);
    const QuantizedBlob blob = Quantize(w, bits);
    const std::vector<float> restored = Dequantize(blob);
    ASSERT_EQ(restored.size(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_LE(std::fabs(w[i] - restored[i]), blob.scale * 0.5 + 1e-7);
    }
  }
}

TEST(QuantizeTest, SixteenBitMoreAccurateThanEight) {
  std::vector<float> w8 = RandomWeights(2000, 5);
  std::vector<float> w16 = w8;
  const double err8 = QuantizeDequantize(w8, 8);
  const double err16 = QuantizeDequantize(w16, 16);
  EXPECT_LT(err16, err8);
  EXPECT_GT(err8, 0.0);
}

TEST(QuantizeTest, ByteSizesMatchBitWidth) {
  const std::vector<float> w = RandomWeights(100, 7);
  EXPECT_EQ(Quantize(w, 8).data.size(), 100u);
  EXPECT_EQ(Quantize(w, 16).data.size(), 200u);
  // The blob is ~4x / ~2x smaller than fp32.
  EXPECT_LT(QuantizedByteSize(100, 8), 100 * 4 / 2);
}

TEST(QuantizeTest, ConstantVectorSurvives) {
  std::vector<float> w(64, 1.25f);
  const QuantizedBlob blob = Quantize(w, 8);
  const std::vector<float> restored = Dequantize(blob);
  for (float x : restored) {
    EXPECT_NEAR(x, 1.25f, 1e-2);
  }
}

TEST(QuantizeTest, EmptyVector) {
  const QuantizedBlob blob = Quantize({}, 8);
  EXPECT_EQ(blob.count, 0u);
  EXPECT_TRUE(Dequantize(blob).empty());
}

TEST(QuantizeTest, PreservesExtremes) {
  const std::vector<float> w = {-5.0f, 0.0f, 5.0f};
  const std::vector<float> restored = Dequantize(Quantize(w, 16));
  EXPECT_NEAR(restored[0], -5.0f, 1e-3);
  EXPECT_NEAR(restored[2], 5.0f, 1e-3);
}

class QuantizeSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(QuantizeSweep, RoundTripBounded) {
  const auto [bits, seed] = GetParam();
  std::vector<float> w = RandomWeights(512, seed);
  const double max_abs = [&] {
    double m = 0.0;
    for (float x : w) {
      m = std::max(m, std::fabs(static_cast<double>(x)));
    }
    return m;
  }();
  const double err = QuantizeDequantize(w, bits);
  const double levels = bits == 8 ? 255.0 : 65535.0;
  EXPECT_LE(err, 2.0 * max_abs / levels + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(BitsAndSeeds, QuantizeSweep,
                         ::testing::Combine(::testing::Values(8, 16),
                                            ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4})));

// The blob round trip the one-pass QuantizeDequantize replaced: the restored
// values and the max absolute error, as the real engine computed them.
double BlobRoundTrip(std::vector<float>& values, int bits) {
  const std::vector<float> restored = Dequantize(Quantize(values, bits));
  double max_err = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(values[i]) - restored[i]));
  }
  values = restored;
  return max_err;
}

// Bit-for-bit equality; memcmp may not see the null data() of an empty
// vector.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Inputs at the edges of the affine map: empty, constant, all-negative,
// signed zeros, subnormals, and values exactly halfway between codes.
std::vector<std::vector<float>> EdgeInputs() {
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<std::vector<float>> inputs = {
      {},
      std::vector<float>(37, 1.25f),
      std::vector<float>(9, -3.5f),
      {-2.0f, -0.5f, -1e-3f, -7.25f, -0.0f},
      {0.0f, -0.0f, 0.0f, -0.0f},
      {-0.0f, 1.0f, 0.0f, -1.0f},
      {denorm, 2 * denorm, 1e-40f, -1e-39f, 0.0f},
      {std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(), denorm},
  };
  // With lo = 0 and hi = 255 the 8-bit scale is exactly 1, so k + 0.5 sits
  // halfway between codes k and k + 1; likewise with hi = 65535 at 16 bits.
  for (const float hi : {255.0f, 65535.0f}) {
    std::vector<float> halves = {0.0f, hi};
    for (float k : {0.0f, 1.0f, 2.0f, 127.0f, 253.0f, 254.0f}) {
      halves.push_back(k + 0.5f);
      halves.push_back(std::nextafter(k + 0.5f, 0.0f));
      halves.push_back(std::nextafter(k + 0.5f, hi));
    }
    inputs.push_back(halves);
  }
  inputs.push_back(RandomWeights(50826, 11));
  return inputs;
}

TEST(QuantizeTest, OnePassRoundTripMatchesTheBlobRoundTripBitForBit) {
  for (int bits : {8, 16}) {
    for (const std::vector<float>& input : EdgeInputs()) {
      std::vector<float> expected = input;
      const double expected_err = BlobRoundTrip(expected, bits);
      std::vector<float> actual = input;
      const double err = QuantizeDequantize(actual, bits);
      EXPECT_TRUE(SameBits(actual, expected)) << bits << " bits, " << input.size() << " values";
      EXPECT_EQ(std::memcmp(&err, &expected_err, sizeof(err)), 0) << bits << " bits";
    }
  }
}

TEST(QuantizeTest, OnePassRoundTripSeesTheBlobsCodesAndSize) {
  for (int bits : {8, 16}) {
    for (const std::vector<float>& input : EdgeInputs()) {
      const QuantizedBlob blob = Quantize(input, bits);
      std::vector<uint8_t> codes;
      std::vector<float> values = input;
      QuantizeDequantize(values, bits, [&](uint32_t code) {
        codes.push_back(static_cast<uint8_t>(code & 0xFF));
        if (bits == 16) {
          codes.push_back(static_cast<uint8_t>(code >> 8));
        }
      });
      EXPECT_EQ(codes, blob.data) << bits << " bits";
      EXPECT_EQ(QuantizedByteSize(input.size(), bits),
                blob.data.size() + sizeof(float) * 2 + sizeof(int));
    }
  }
}

}  // namespace
}  // namespace floatfl
