#include "src/opt/compress.h"

namespace floatfl {

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

}  // namespace floatfl
