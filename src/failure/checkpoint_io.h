// Bit-exact binary archive for checkpoint/resume.
//
// Checkpoints must restore an experiment to the *identical* process state —
// the resume contract is bit-for-bit equality with an uninterrupted run — so
// the archive stores doubles and floats as their raw IEEE-754 bit patterns
// (no text round-tripping) and every integer as a fixed-width
// little-endian-on-write value. The writer accumulates into a memory buffer
// and flushes to disk atomically (write temp, rename); the reader validates
// length on every primitive and latches a failure flag instead of throwing,
// so a truncated or corrupted checkpoint is reported, never trusted.
#ifndef SRC_FAILURE_CHECKPOINT_IO_H_
#define SRC_FAILURE_CHECKPOINT_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/failure/durable_file.h"

namespace floatfl {

class CheckpointWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Size(size_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }

  void F64Vec(const std::vector<double>& v) {
    Size(v.size());
    for (double x : v) F64(x);
  }
  void F32Vec(const std::vector<float>& v) {
    Size(v.size());
    for (float x : v) F32(x);
  }
  void SizeVec(const std::vector<size_t>& v) {
    Size(v.size());
    for (size_t x : v) Size(x);
  }
  void U32Vec(const std::vector<uint32_t>& v) {
    Size(v.size());
    for (uint32_t x : v) U32(x);
  }
  void U8Vec(const std::vector<uint8_t>& v) {
    Size(v.size());
    for (uint8_t x : v) U8(x);
  }
  void BoolVec(const std::vector<bool>& v) {
    Size(v.size());
    for (bool x : v) Bool(x);
  }
  // Length-prefixed byte string; carries nested archive blobs (the guard's
  // snapshot ring stores whole serialized states as opaque payloads).
  void Str(const std::string& s) {
    Size(s.size());
    buf_.append(s);
  }

  const std::string& buffer() const { return buf_; }

  // Crash-consistent file write (fsync'd temp + rename + directory fsync,
  // src/failure/durable_file.h). Returns false on any I/O failure — an empty
  // path, an unwritable or missing parent directory, a directory as the
  // target, a short write — without ever leaving a partial final file. An
  // injected `io` receives the bytes instead, so tests can tear the write or
  // kill the process at named crashpoints.
  bool WriteFile(const std::string& path, DurableFile& io = DefaultDurableFile()) const;

 private:
  void Raw(const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);
  }
  std::string buf_;
};

class CheckpointReader {
 public:
  explicit CheckpointReader(std::string data) : buf_(std::move(data)) {}

  // Reads an entire file into a reader. Returns false if the file cannot be
  // read; the reader is left failed in that case.
  static bool FromFile(const std::string& path, CheckpointReader* out);

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  size_t Size() { return static_cast<size_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  float F32() {
    const uint32_t bits = U32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<double> F64Vec() { return Vec<double>(&CheckpointReader::F64); }
  std::vector<float> F32Vec() { return Vec<float>(&CheckpointReader::F32); }
  std::vector<size_t> SizeVec() { return Vec<size_t>(&CheckpointReader::Size); }
  std::vector<uint32_t> U32Vec() { return Vec<uint32_t>(&CheckpointReader::U32); }
  std::vector<uint8_t> U8Vec() { return Vec<uint8_t>(&CheckpointReader::U8); }
  std::vector<bool> BoolVec() {
    const size_t n = SaneCount();
    std::vector<bool> v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok(); ++i) v.push_back(Bool());
    return v;
  }
  std::string Str() {
    const size_t n = SaneCount();
    std::string s;
    if (!ok_ || n == 0) return s;
    s.assign(buf_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  // True while every read so far stayed in bounds.
  bool ok() const { return ok_; }
  // True when the payload was consumed exactly (call after the last field).
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || pos_ + n > buf_.size()) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  // Element count with an overrun guard: a corrupted length field cannot ask
  // for more elements than bytes remaining.
  size_t SaneCount() {
    const size_t n = Size();
    if (n > buf_.size() - std::min(pos_, buf_.size())) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  template <typename T>
  std::vector<T> Vec(T (CheckpointReader::*read)()) {
    const size_t n = SaneCount();
    std::vector<T> v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok(); ++i) v.push_back((this->*read)());
    return v;
  }

  std::string buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace floatfl

#endif  // SRC_FAILURE_CHECKPOINT_IO_H_
