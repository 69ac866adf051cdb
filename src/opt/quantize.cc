#include "src/opt/quantize.h"

#include "src/common/check.h"

namespace floatfl {

QuantizationMap QuantizationMap::Fit(const std::vector<float>& values, int bits) {
  FLOATFL_CHECK(bits == 8 || bits == 16);
  float lo = 0.0f;
  float hi = 0.0f;
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  QuantizationMap map;
  map.levels = (bits == 8) ? 255u : 65535u;
  float range = hi - lo;
  if (range <= 0.0f) {
    range = 1.0f;
  }
  map.scale = range / static_cast<float>(map.levels);
  map.zero_point = lo;
  return map;
}

QuantizedBlob Quantize(const std::vector<float>& values, int bits) {
  const QuantizationMap map = QuantizationMap::Fit(values, bits);
  QuantizedBlob blob;
  blob.bits = bits;
  blob.count = values.size();
  blob.scale = map.scale;
  blob.zero_point = map.zero_point;
  blob.data.reserve(values.size() * static_cast<size_t>(bits / 8));
  for (float v : values) {
    const uint32_t code = map.Code(v);
    blob.data.push_back(static_cast<uint8_t>(code & 0xFF));
    if (bits == 16) {
      blob.data.push_back(static_cast<uint8_t>((code >> 8) & 0xFF));
    }
  }
  return blob;
}

std::vector<float> Dequantize(const QuantizedBlob& blob) {
  const QuantizationMap map{.scale = blob.scale, .zero_point = blob.zero_point};
  std::vector<float> out;
  out.reserve(blob.count);
  const size_t stride = static_cast<size_t>(blob.bits / 8);
  FLOATFL_CHECK(blob.data.size() == blob.count * stride);
  for (size_t i = 0; i < blob.count; ++i) {
    uint32_t code = blob.data[i * stride];
    if (blob.bits == 16) {
      code |= static_cast<uint32_t>(blob.data[i * stride + 1]) << 8;
    }
    out.push_back(map.Restore(code));
  }
  return out;
}

double QuantizeDequantize(std::vector<float>& values, int bits) {
  return QuantizeDequantize(values, bits, [](uint32_t) {});
}

}  // namespace floatfl
