// Real lossless compression of serialized updates.
//
// Byte-level run-length encoding over a zigzag-delta transform. Quantized or
// pruned updates contain long runs (zeros, repeated codes), which is exactly
// where the paper's "lossless compression reduces bandwidth at extra compute
// cost" trade-off comes from.
#ifndef SRC_OPT_COMPRESS_H_
#define SRC_OPT_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace floatfl {

// The encoder behind RleCompress, fed one input byte at a time: it
// delta-transforms the stream (each byte minus the one before it, mod 256)
// and splits the deltas into runs of at most 255. A caller that only needs
// the encoded size counts the runs instead of storing them.
class RleRuns {
 public:
  // Feeds the next input byte. When it ends the current run, `emit(length,
  // delta)` receives that run first.
  template <typename Emit>
  void Push(uint8_t byte, Emit&& emit) {
    const uint8_t delta = static_cast<uint8_t>(byte - prev_);
    prev_ = byte;
    if (run_ > 0 && run_ < 255 && delta == value_) {
      ++run_;
      return;
    }
    if (run_ > 0) {
      emit(static_cast<uint8_t>(run_), value_);
    }
    value_ = delta;
    run_ = 1;
  }

  // Ends the stream: `emit` receives the last run, if any.
  template <typename Emit>
  void Finish(Emit&& emit) {
    if (run_ > 0) {
      emit(static_cast<uint8_t>(run_), value_);
    }
    run_ = 0;
  }

 private:
  uint8_t prev_ = 0;
  uint8_t value_ = 0;
  unsigned run_ = 0;
};

// Bytes RleCompress emits per run: its length, then its delta.
inline constexpr size_t kRleBytesPerRun = 2;

// RLE over delta-encoded bytes, lossless: expanding each run and summing
// the deltas mod 256 gives the input back.
std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& input);

}  // namespace floatfl

#endif  // SRC_OPT_COMPRESS_H_
