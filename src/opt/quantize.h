// Real uniform affine quantization of model parameters.
//
// Used by the nn-backed path: a client quantizes its update before upload,
// the server dequantizes before aggregation. QuantizeDequantize round-trips
// in place, in one pass with no blob, so the engines and tests can measure
// the induced error directly.
#ifndef SRC_OPT_QUANTIZE_H_
#define SRC_OPT_QUANTIZE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace floatfl {

// Serialized size of `count` values quantized to `bits`: the packed codes,
// then scale, zero point and bit width.
inline size_t QuantizedByteSize(size_t count, int bits) {
  return count * static_cast<size_t>(bits / 8) + sizeof(float) * 2 + sizeof(int);
}

struct QuantizedBlob {
  std::vector<uint8_t> data;   // packed codes, little-endian per value
  float scale = 1.0f;
  float zero_point = 0.0f;
  int bits = 8;                // 8 or 16
  size_t count = 0;

  size_t ByteSize() const { return QuantizedByteSize(count, bits); }
};

// The symmetric-range affine map Quantize fits to a vector, and its
// per-value arithmetic in both directions.
struct QuantizationMap {
  float scale = 1.0f;
  float zero_point = 0.0f;
  uint32_t levels = 255;

  // Fits the map to `values` at `bits` (8 or 16).
  static QuantizationMap Fit(const std::vector<float>& values, int bits);

  uint32_t Code(float v) const {
    const float q = (v - zero_point) / scale;
    return static_cast<uint32_t>(std::clamp(std::lround(q), 0L, static_cast<long>(levels)));
  }
  float Restore(uint32_t code) const { return zero_point + scale * static_cast<float>(code); }
};

// Quantizes `values` to `bits` (8 or 16) with a symmetric-range affine map.
QuantizedBlob Quantize(const std::vector<float>& values, int bits);

// Inverse of Quantize.
std::vector<float> Dequantize(const QuantizedBlob& blob);

// Replaces every value with Dequantize(Quantize(values, bits))'s, in one
// pass, handing each code to `on_code` as it goes. Returns the max absolute
// error.
template <typename OnCode>
double QuantizeDequantize(std::vector<float>& values, int bits, OnCode&& on_code) {
  const QuantizationMap map = QuantizationMap::Fit(values, bits);
  double max_err = 0.0;
  for (float& v : values) {
    const uint32_t code = map.Code(v);
    on_code(code);
    const float restored = map.Restore(code);
    max_err = std::max(max_err, std::fabs(static_cast<double>(v) - restored));
    v = restored;
  }
  return max_err;
}

// The same round trip with nothing watching the codes.
double QuantizeDequantize(std::vector<float>& values, int bits);

}  // namespace floatfl

#endif  // SRC_OPT_QUANTIZE_H_
