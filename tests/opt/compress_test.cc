#include "src/opt/compress.h"

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/opt/quantize.h"

namespace floatfl {
namespace {

// Inverse of RleRuns' delta transform: out[i] = out[i-1] + in[i] (mod 256).
std::vector<uint8_t> DeltaDecode(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out(input.size());
  uint8_t prev = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    prev = static_cast<uint8_t>(prev + input[i]);
    out[i] = prev;
  }
  return out;
}

// RleCompress's decoder, the round-trip oracle.
std::vector<uint8_t> RleDecompress(const std::vector<uint8_t>& input) {
  FLOATFL_CHECK(input.size() % 2 == 0);
  std::vector<uint8_t> delta;
  delta.reserve(input.size() * 4);
  for (size_t i = 0; i < input.size(); i += 2) {
    const size_t run = input[i];
    const uint8_t value = input[i + 1];
    delta.insert(delta.end(), run, value);
  }
  return DeltaDecode(delta);
}

TEST(CompressTest, RoundTripEmpty) {
  EXPECT_TRUE(RleDecompress(RleCompress({})).empty());
}

// No header: an empty update costs no bytes on the wire.
TEST(CompressTest, EmptyInputCompressesToNothing) { EXPECT_TRUE(RleCompress({}).empty()); }

TEST(CompressTest, RoundTripExactOnRandomData) {
  Rng rng(1);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(256));
  }
  EXPECT_EQ(RleDecompress(RleCompress(data)), data);
}

TEST(CompressTest, RoundTripExactOnRuns) {
  std::vector<uint8_t> data;
  for (int run = 0; run < 20; ++run) {
    data.insert(data.end(), 300, static_cast<uint8_t>(run));
  }
  EXPECT_EQ(RleDecompress(RleCompress(data)), data);
}

TEST(CompressTest, CompressesZeroRuns) {
  std::vector<uint8_t> data(10000, 0);
  EXPECT_LT(RleCompress(data).size(), data.size() / 50);
}

TEST(CompressTest, CompressesSlowlyVaryingSequences) {
  // Delta transform turns monotone ramps into runs.
  std::vector<uint8_t> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(static_cast<uint8_t>(i / 64));
  }
  EXPECT_LT(RleCompress(data).size(), data.size() / 10);
}

TEST(CompressTest, RandomDataExpandsBoundedly) {
  Rng rng(3);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(256));
  }
  // Worst case of byte-RLE is 2x.
  EXPECT_LE(RleCompress(data).size(), 2 * data.size());
}

TEST(CompressTest, PrunedQuantizedUpdateCompressesWell) {
  // The realistic pipeline: quantize a 75 %-pruned update and compress. The
  // zero runs from pruning must yield a strong ratio — this is the lossless
  // compression trade the paper describes.
  Rng rng(5);
  std::vector<float> weights(8192);
  for (auto& w : weights) {
    w = static_cast<float>(rng.Normal(0.0, 0.05));
  }
  // Prune: zero 75 % smallest.
  std::vector<float> sorted_mags;
  for (float w : weights) {
    sorted_mags.push_back(std::abs(w));
  }
  std::sort(sorted_mags.begin(), sorted_mags.end());
  const float threshold = sorted_mags[sorted_mags.size() * 3 / 4];
  for (auto& w : weights) {
    if (std::abs(w) < threshold) {
      w = 0.0f;
    }
  }
  const QuantizedBlob pruned_blob = Quantize(weights, 8);
  // Compare against the unpruned version of the same update: the zero runs
  // introduced by pruning must make the blob substantially more
  // compressible.
  Rng rng2(5);
  std::vector<float> dense(8192);
  for (auto& w : dense) {
    w = static_cast<float>(rng2.Normal(0.0, 0.05));
  }
  const QuantizedBlob dense_blob = Quantize(dense, 8);
  ASSERT_EQ(pruned_blob.data.size(), dense_blob.data.size());
  EXPECT_LT(10 * RleCompress(pruned_blob.data).size(), 7 * RleCompress(dense_blob.data).size());
}

class CompressRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressRoundTripSweep, AlwaysExact) {
  Rng rng(GetParam());
  std::vector<uint8_t> data(static_cast<size_t>(rng.UniformInt(2000)) + 1);
  // Mix of runs and noise.
  size_t i = 0;
  while (i < data.size()) {
    const uint8_t value = static_cast<uint8_t>(rng.UniformInt(256));
    const size_t run = std::min<size_t>(rng.UniformInt(50) + 1, data.size() - i);
    for (size_t j = 0; j < run; ++j) {
      data[i++] = value;
    }
  }
  EXPECT_EQ(RleDecompress(RleCompress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressRoundTripSweep, ::testing::Range(uint64_t{0}, uint64_t{10}));

// The two-pass encoder RleRuns replaced: a full delta buffer, then runs of
// at most 255 read off it.
std::vector<uint8_t> TwoPassRleCompress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> delta(input.size());
  uint8_t prev = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    delta[i] = static_cast<uint8_t>(input[i] - prev);
    prev = input[i];
  }
  std::vector<uint8_t> out;
  size_t i = 0;
  while (i < delta.size()) {
    const uint8_t value = delta[i];
    size_t run = 1;
    while (i + run < delta.size() && delta[i + run] == value && run < 255) {
      ++run;
    }
    out.push_back(static_cast<uint8_t>(run));
    out.push_back(value);
    i += run;
  }
  return out;
}

// Byte streams with runs shorter than, at and past the 255-byte cap, ramps
// whose deltas repeat, noise, and the 16-bit codes of quantized weights.
std::vector<std::vector<uint8_t>> RleInputs() {
  std::vector<std::vector<uint8_t>> inputs = {{}, {0}, {7}, {0, 0}, {1, 1, 1, 2}};
  for (size_t run : {size_t{254}, size_t{255}, size_t{256}, size_t{510}, size_t{511},
                     size_t{1000}}) {
    inputs.push_back(std::vector<uint8_t>(run, 0));
    inputs.push_back(std::vector<uint8_t>(run, 9));
    std::vector<uint8_t> ramp(run);
    for (size_t i = 0; i < run; ++i) {
      ramp[i] = static_cast<uint8_t>(3 * i);
    }
    inputs.push_back(ramp);
  }
  Rng rng(29);
  std::vector<uint8_t> noise(3000);
  for (uint8_t& b : noise) {
    b = static_cast<uint8_t>(rng.UniformInt(256));
  }
  inputs.push_back(noise);
  std::vector<float> weights(50826);
  for (float& w : weights) {
    w = static_cast<float>(rng.Normal(0.0, 0.05));
  }
  inputs.push_back(Quantize(weights, 16).data);
  std::vector<float> constant(700, 0.5f);
  inputs.push_back(Quantize(constant, 16).data);
  return inputs;
}

TEST(CompressTest, StreamingEncoderMatchesTheTwoPassEncoder) {
  for (const std::vector<uint8_t>& input : RleInputs()) {
    EXPECT_EQ(RleCompress(input), TwoPassRleCompress(input)) << input.size() << " bytes";
  }
}

TEST(CompressTest, CountedRunsGiveTheCompressedSize) {
  for (const std::vector<uint8_t>& input : RleInputs()) {
    RleRuns runs;
    size_t counted = 0;
    const auto count = [&counted](uint8_t, uint8_t) { counted += kRleBytesPerRun; };
    for (uint8_t byte : input) {
      runs.Push(byte, count);
    }
    runs.Finish(count);
    EXPECT_EQ(counted, RleCompress(input).size()) << input.size() << " bytes";
  }
}

// The real engine counts the runs of the 16-bit codes as the one-pass
// round trip hands them over.
TEST(CompressTest, RunsCountedFromTheRoundTripsCodesMatchTheBlob) {
  Rng rng(31);
  std::vector<float> weights(50826);
  for (float& w : weights) {
    w = static_cast<float>(rng.Normal(0.0, 0.05));
  }
  for (size_t i = 1000; i < 2000; ++i) {
    weights[i] = 0.0f;  // a long run of equal codes
  }
  for (const std::vector<float>& input : {weights, std::vector<float>(600, -1.5f)}) {
    RleRuns runs;
    size_t counted = 0;
    const auto count = [&counted](uint8_t, uint8_t) { counted += kRleBytesPerRun; };
    std::vector<float> values = input;
    QuantizeDequantize(values, 16, [&](uint32_t code) {
      runs.Push(static_cast<uint8_t>(code & 0xFF), count);
      runs.Push(static_cast<uint8_t>(code >> 8), count);
    });
    runs.Finish(count);
    EXPECT_EQ(counted, TwoPassRleCompress(Quantize(input, 16).data).size());
  }
}

}  // namespace
}  // namespace floatfl
