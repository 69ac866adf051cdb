#include "src/opt/prune.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/check.h"

namespace floatfl {

namespace {

// |v|'s bits. For every non-NaN float these order exactly as the
// magnitudes do: +0 and -0 both map to 0, and +inf sits above every finite
// value.
uint32_t MagnitudeBits(float v) { return std::bit_cast<uint32_t>(v) & 0x7FFFFFFFu; }

// The magnitude of sorted rank `rank` (0-based) among `values`, none NaN:
// a radix select over the 31 magnitude bits, one histogram pass per digit,
// each pass counting only the values whose higher digits match the ones
// already chosen.
float SelectMagnitude(const std::vector<float>& values, size_t rank) {
  constexpr int kDigitBits[] = {11, 10, 10};
  uint32_t prefix = 0;
  int shift = 31;
  std::array<size_t, size_t{1} << 11> counts = {};
  for (const int bits : kDigitBits) {
    const int high = shift;
    shift -= bits;
    const uint32_t mask = (1u << bits) - 1;
    std::fill(counts.begin(), counts.begin() + (size_t{1} << bits), 0);
    for (float v : values) {
      const uint32_t m = MagnitudeBits(v);
      if ((m >> high) == prefix) {
        ++counts[(m >> shift) & mask];
      }
    }
    uint32_t digit = 0;
    while (rank >= counts[digit]) {
      rank -= counts[digit];
      ++digit;
    }
    prefix = (prefix << bits) | digit;
  }
  return std::bit_cast<float>(prefix);
}

}  // namespace

size_t MagnitudePrune(std::vector<float>& values, double fraction) {
  float largest_zeroed = 0.0f;
  return MagnitudePrune(values, fraction, largest_zeroed);
}

size_t MagnitudePrune(std::vector<float>& values, double fraction, float& largest_zeroed) {
  FLOATFL_CHECK(fraction >= 0.0 && fraction <= 1.0);
  largest_zeroed = 0.0f;
  if (values.empty() || fraction == 0.0) {
    return 0;
  }
  const size_t k = static_cast<size_t>(std::llround(fraction * static_cast<double>(values.size())));
  if (k == 0) {
    return 0;
  }
  const size_t cutoff_index = std::min(k, values.size()) - 1;
  float threshold;
  if (std::none_of(values.begin(), values.end(), [](float v) { return std::isnan(v); })) {
    threshold = SelectMagnitude(values, cutoff_index);
  } else {
    // NaN has no rank, and nth_element's pick among unordered magnitudes is
    // its own: keep it, since a diverged update's upload size still feeds
    // the transport's draws before validation rejects it.
    std::vector<float> sorted(values.size());
    std::transform(values.begin(), values.end(), sorted.begin(),
                   [](float v) { return std::fabs(v); });
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(cutoff_index),
                     sorted.end());
    threshold = sorted[cutoff_index];
  }
  size_t zeroed = 0;
  for (size_t i = 0; i < values.size() && zeroed < k; ++i) {
    const float magnitude = std::fabs(values[i]);
    if (magnitude <= threshold && values[i] != 0.0f) {
      largest_zeroed = std::max(largest_zeroed, magnitude);
      values[i] = 0.0f;
      ++zeroed;
    }
  }
  return zeroed;
}

double Sparsity(const std::vector<float>& values) {
  if (values.empty()) {
    return 0.0;
  }
  size_t zeros = 0;
  for (float v : values) {
    if (v == 0.0f) {
      ++zeros;
    }
  }
  return static_cast<double>(zeros) / static_cast<double>(values.size());
}

size_t SparseEncodingBytes(const std::vector<float>& values) {
  size_t nonzero = 0;
  for (float v : values) {
    if (v != 0.0f) {
      ++nonzero;
    }
  }
  return nonzero * 8 + sizeof(uint32_t);
}

}  // namespace floatfl
