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
//
// Every checkpointed type lists its fields once, in archive order, and both
// directions walk that one list (DESIGN.md §8): `Io(archive, fields...)`
// writes each field through a CheckpointWriter and reads it back through a
// CheckpointReader. The encoding follows the field's C++ type:
//   bool, uint8_t, uint32_t, uint64_t (size_t), float, double: their own
//       width (bool as one byte);
//   an enum: u32;
//   std::string: a u64 length, then its bytes;
//   a container (vector, deque, set, map): a u64 count, then its elements;
//       a read bounds the count by the bytes left;
//   a pair or tuple (so a map entry): its elements in order;
//   a struct with a static `Fields(self, archive)`: that list;
//   a component with SaveState/LoadState: its own walk;
//   an Rng: its six raw state words.
// Any other type does not compile; a field stored at another width than its
// type's says so with IoAs<Stored>.
#ifndef SRC_FAILURE_CHECKPOINT_IO_H_
#define SRC_FAILURE_CHECKPOINT_IO_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
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
  // Length-prefixed byte string; carries nested archive blobs (the guard's
  // snapshot ring stores whole serialized states as opaque payloads).
  void Str(const std::string& s) {
    Size(s.size());
    buf_.append(s);
  }

  // A write never fails, so a walk states a read's check once:
  // FLOATFL_CHECK_MSG(matches || !a.ok(), ...).
  bool ok() const { return true; }

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
  std::string Str() {
    const size_t n = Count();
    std::string s;
    if (!ok_ || n == 0) return s;
    s.assign(buf_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  // An element count with an overrun guard: every element takes at least one
  // byte, so a corrupted count cannot ask for more elements than bytes
  // remain. A count past that fails the reader and reads as 0.
  size_t Count() {
    const size_t n = Size();
    if (n > buf_.size() - std::min(pos_, buf_.size())) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  // True while every read so far stayed in bounds.
  bool ok() const { return ok_; }
  // True when the payload was consumed exactly (call after the last field).
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  void Raw(void* p, size_t n);

  std::string buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Scalars.
inline void Io(CheckpointWriter& w, bool v) { w.Bool(v); }
inline void Io(CheckpointWriter& w, uint8_t v) { w.U8(v); }
inline void Io(CheckpointWriter& w, uint32_t v) { w.U32(v); }
inline void Io(CheckpointWriter& w, uint64_t v) { w.U64(v); }
inline void Io(CheckpointWriter& w, float v) { w.F32(v); }
inline void Io(CheckpointWriter& w, double v) { w.F64(v); }
inline void Io(CheckpointWriter& w, const std::string& v) { w.Str(v); }
inline void Io(CheckpointReader& r, bool& v) { v = r.Bool(); }
inline void Io(CheckpointReader& r, uint8_t& v) { v = r.U8(); }
inline void Io(CheckpointReader& r, uint32_t& v) { v = r.U32(); }
inline void Io(CheckpointReader& r, uint64_t& v) { v = r.U64(); }
inline void Io(CheckpointReader& r, float& v) { v = r.F32(); }
inline void Io(CheckpointReader& r, double& v) { v = r.F64(); }
inline void Io(CheckpointReader& r, std::string& v) { v = r.Str(); }
// A pointer would convert to bool.
template <typename T>
void Io(CheckpointWriter&, const T*) = delete;

inline void Io(CheckpointWriter& w, const Rng& rng) {
  for (uint64_t v : rng.SaveRaw()) w.U64(v);
}
inline void Io(CheckpointReader& r, Rng& rng) {
  std::array<uint64_t, 6> raw;
  for (uint64_t& v : raw) v = r.U64();
  rng.RestoreRaw(raw);
}

template <typename E>
  requires std::is_enum_v<E>
void Io(CheckpointWriter& w, E v) {
  w.U32(static_cast<uint32_t>(v));
}
template <typename E>
  requires std::is_enum_v<E>
void Io(CheckpointReader& r, E& v) {
  v = static_cast<E>(r.U32());
}

template <typename C>
concept Container = requires(C& c) {
  c.clear();
  c.insert(c.end(), *c.begin());
};
template <typename T>
concept TupleLike = requires { std::tuple_size<std::remove_const_t<T>>::value; };
template <typename T, typename A>
concept HasFields = requires(T& v, A& a) { std::remove_const_t<T>::Fields(v, a); };

// The templates call each other (a map of maps, a vector of structs), so each
// is declared before any is defined.
template <typename C>
  requires Container<C>
void Io(CheckpointWriter& w, const C& c);
template <typename C>
  requires Container<C>
void Io(CheckpointReader& r, C& c);
template <typename A, typename T>
  requires TupleLike<T>
void Io(A& a, T& t);
template <typename A, typename T>
  requires HasFields<T, A>
void Io(A& a, T& v);
template <typename A, typename... T>
  requires(sizeof...(T) > 1)
void Io(A& a, T&... fields);

// A component walks its own fields.
template <typename T>
  requires requires(const T& v, CheckpointWriter& w) { v.SaveState(w); }
void Io(CheckpointWriter& w, const T& v) {
  v.SaveState(w);
}
template <typename T>
  requires requires(T& v, CheckpointReader& r) { v.LoadState(r); }
void Io(CheckpointReader& r, T& v) {
  v.LoadState(r);
}
// An owned component is its pointee.
template <typename A, typename T>
void Io(A& a, const std::unique_ptr<T>& p) {
  Io(a, *p);
}

template <typename C>
  requires Container<C>
void Io(CheckpointWriter& w, const C& c) {
  w.Size(c.size());
  for (const auto& x : c) Io(w, x);
}

template <typename C>
  requires Container<C>
void Io(CheckpointReader& r, C& c) {
  const size_t n = r.Count();
  c.clear();
  // A scalar takes at most 8 bytes for every byte of the archive.
  if constexpr (std::is_arithmetic_v<typename C::value_type> && requires { c.reserve(n); }) {
    c.reserve(n);
  }
  for (size_t i = 0; i < n && r.ok(); ++i) {
    if constexpr (requires { typename C::mapped_type; }) {
      typename C::key_type key{};
      typename C::mapped_type value{};
      Io(r, key, value);
      c.emplace_hint(c.end(), std::move(key), std::move(value));
    } else {
      typename C::value_type x{};
      Io(r, x);
      c.insert(c.end(), std::move(x));
    }
  }
}

template <typename A, typename T>
  requires TupleLike<T>
void Io(A& a, T& t) {
  std::apply([&a](auto&... x) { (Io(a, x), ...); }, t);
}

template <typename A, typename T>
  requires HasFields<T, A>
void Io(A& a, T& v) {
  std::remove_const_t<T>::Fields(v, a);
}

// A field list, in archive order.
template <typename A, typename... T>
  requires(sizeof...(T) > 1)
void Io(A& a, T&... fields) {
  (Io(a, fields), ...);
}

// A field stored at another width than its C++ type's.
template <typename Stored, typename T>
void IoAs(CheckpointWriter& w, const T& v) {
  Io(w, static_cast<Stored>(v));
}
template <typename Stored, typename T>
void IoAs(CheckpointReader& r, T& v) {
  Stored stored{};
  Io(r, stored);
  v = static_cast<T>(stored);
}

// A length the engine fixes (a population, a model layer), stored as a
// count: true when the archive's count is `n`. A count that differs is the
// `mismatch` failure on a sound archive.
template <typename A>
bool IoCount(A& a, size_t n, const char* mismatch) {
  size_t stored = n;
  Io(a, stored);
  FLOATFL_CHECK_MSG(stored == n || !a.ok(), mismatch);
  return stored == n;
}

// A container of fixed length: its count, then its elements, read in place;
// a failed archive's count skips them. A vector<bool>'s elements are proxies,
// so each goes through a bool.
template <typename A, typename C>
void IoFixed(A& a, C& c, const char* mismatch) {
  if (!IoCount(a, c.size(), mismatch)) {
    return;
  }
  if constexpr (std::is_same_v<std::remove_const_t<C>, std::vector<bool>>) {
    for (size_t i = 0; i < c.size(); ++i) {
      bool bit = c[i];
      Io(a, bit);
      if constexpr (!std::is_const_v<C>) {
        c[i] = bit;
      }
    }
  } else {
    for (auto& x : c) Io(a, x);
  }
}

}  // namespace floatfl

#endif  // SRC_FAILURE_CHECKPOINT_IO_H_
