#include "src/opt/compress.h"

#include "src/common/check.h"

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

}  // namespace

std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& input) {
  // Each input byte ends at most one run, so the output never needs more
  // than two bytes per input byte.
  std::vector<uint8_t> out(kRleBytesPerRun * input.size());
  uint8_t* next = out.data();
  const auto append = [&next](uint8_t run, uint8_t delta) {
    next[0] = run;
    next[1] = delta;
    next += kRleBytesPerRun;
  };
  RleRuns runs;
  for (uint8_t byte : input) {
    runs.Push(byte, append);
  }
  runs.Finish(append);
  out.resize(static_cast<size_t>(next - out.data()));
  return out;
}

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

double CompressionRatio(const std::vector<uint8_t>& input) {
  if (input.empty()) {
    return 1.0;
  }
  return static_cast<double>(RleCompress(input).size()) / static_cast<double>(input.size());
}

}  // namespace floatfl
