#include "src/failure/checkpointer.h"

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"

namespace floatfl {
namespace {

// FNV-1a over a serialized field buffer: stable across runs and platforms
// of the same endianness (the archive is raw little-endian on x86/ARM).
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= static_cast<uint64_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename Engine>
bool SaveEngine(const std::string& path, const Engine& engine, Checkpointer::EngineTag tag,
                DurableFile& io) {
  // The payload is serialized separately so the header can carry its hash;
  // Restore verifies the bytes in full before any LoadState touches the
  // engine.
  CheckpointWriter payload;
  engine.SaveState(payload);
  CheckpointWriter w;
  w.U32(Checkpointer::kMagic);
  w.U32(Checkpointer::kVersion);
  w.U32(static_cast<uint32_t>(tag));
  w.U64(FingerprintConfig(engine.config()));
  w.U64(Fnv1a(payload.buffer()));
  w.Str(payload.buffer());
  return w.WriteFile(path, io);
}

template <typename Engine>
bool RestoreEngine(const std::string& path, Engine& engine, Checkpointer::EngineTag tag) {
  CheckpointReader r("");
  if (!CheckpointReader::FromFile(path, &r)) {
    return false;
  }
  if (r.U32() != Checkpointer::kMagic || r.U32() != Checkpointer::kVersion ||
      r.U32() != static_cast<uint32_t>(tag) || !r.ok()) {
    return false;
  }
  if (r.U64() != FingerprintConfig(engine.config())) {
    return false;
  }
  // Hash-check the whole payload before loading anything: a truncated or
  // bit-flipped archive is refused with the engine untouched, never loaded
  // partway.
  const uint64_t payload_hash = r.U64();
  const std::string payload = r.Str();
  if (!r.ok() || !r.AtEnd() || Fnv1a(payload) != payload_hash) {
    return false;
  }
  CheckpointReader pr(payload);
  engine.LoadState(pr);
  return pr.ok() && pr.AtEnd();
}

// The fingerprint of a config is the hash of its field walk.
template <typename Config>
uint64_t Fingerprint(const Config& config) {
  CheckpointWriter w;
  Io(w, config);
  return Fnv1a(w.buffer());
}

}  // namespace

uint64_t FingerprintConfig(const ExperimentConfig& config) { return Fingerprint(config); }
uint64_t FingerprintConfig(const RealFlConfig& config) { return Fingerprint(config); }
uint64_t FingerprintConfig(const VflConfig& config) { return Fingerprint(config); }

bool Checkpointer::Save(const std::string& path, const SyncEngine& engine, DurableFile& io) {
  return SaveEngine(path, engine, EngineTag::kSync, io);
}
bool Checkpointer::Save(const std::string& path, const AsyncEngine& engine, DurableFile& io) {
  return SaveEngine(path, engine, EngineTag::kAsync, io);
}
bool Checkpointer::Save(const std::string& path, const RealFlEngine& engine, DurableFile& io) {
  return SaveEngine(path, engine, EngineTag::kReal, io);
}
bool Checkpointer::Save(const std::string& path, const VflEngine& engine, DurableFile& io) {
  return SaveEngine(path, engine, EngineTag::kVfl, io);
}

bool Checkpointer::Restore(const std::string& path, SyncEngine& engine) {
  return RestoreEngine(path, engine, EngineTag::kSync);
}
bool Checkpointer::Restore(const std::string& path, AsyncEngine& engine) {
  return RestoreEngine(path, engine, EngineTag::kAsync);
}
bool Checkpointer::Restore(const std::string& path, RealFlEngine& engine) {
  return RestoreEngine(path, engine, EngineTag::kReal);
}
bool Checkpointer::Restore(const std::string& path, VflEngine& engine) {
  return RestoreEngine(path, engine, EngineTag::kVfl);
}

}  // namespace floatfl
