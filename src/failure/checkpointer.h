// Versioned whole-engine checkpoints (DESIGN.md §8).
//
// A checkpoint file is a small header — magic, format version, engine tag,
// a fingerprint of the engine's configuration, and an FNV-1a hash of the
// payload — followed by the engine's own SaveState payload as one
// length-prefixed blob. Restore refuses (returns false) on a bad magic,
// unknown version, wrong engine type, mismatched configuration fingerprint,
// a truncated/overlong archive, or a payload whose bytes no longer hash to
// the recorded value — so a stale, foreign, truncated, or bit-flipped
// checkpoint can never be silently (or partially) loaded into a fresh
// engine: the payload is verified in full *before* any engine state is
// touched. The resume contract is bit-for-bit: run N rounds == run M,
// checkpoint, restore into a freshly constructed engine, run N-M more.
#ifndef SRC_FAILURE_CHECKPOINTER_H_
#define SRC_FAILURE_CHECKPOINTER_H_

#include <cstdint>
#include <string>

#include "src/failure/durable_file.h"

namespace floatfl {

class SyncEngine;
class AsyncEngine;
class RealFlEngine;
class VflEngine;
struct ExperimentConfig;
struct RealFlConfig;
struct VflConfig;

// Stable fingerprints of the result-determining configuration fields
// (num_threads is deliberately excluded: a checkpoint taken at one thread
// count restores at any other — results are thread-count invariant).
uint64_t FingerprintConfig(const ExperimentConfig& config);
uint64_t FingerprintConfig(const RealFlConfig& config);
uint64_t FingerprintConfig(const VflConfig& config);

class Checkpointer {
 public:
  static constexpr uint32_t kMagic = 0x464C434BU;  // "FLCK"
  // v2: Byzantine fault fields and the aggregator config joined the
  // fingerprints; engine payloads grew aggregator/tracker state. v3: the
  // lossy-transport fault fields and the adaptive-deadline config joined the
  // fingerprints; engine payloads grew transport/deadline-controller/tracker
  // state and the selector net-factor EWMAs. v4: the guard config and the
  // byzantine_start_round fault field joined the fingerprints; engine
  // payloads grew the self-healing guard state (watchdog, snapshot ring,
  // quarantine, tracker) and, for the real engine, an attached-policy
  // section. v5: TransportTracker serializes its cumulative wire_mb
  // (bytes-moved accounting). v6: the
  // topology config joined the sync/real fingerprints (and
  // min_snapshot_coverage the guard section); sync/real payloads grew the
  // aggregation-tree state (edge injector, up/foster masks, topology
  // tracker, edge aggregator / deadline controller); the header gained a
  // payload hash and the payload became a length-prefixed blob verified
  // against it before LoadState runs. v7: engine payloads grew a
  // RecoveryTracker section (cumulative restart/replay accounting that rides
  // inside the engine so the totals survive process kills, DESIGN.md §14).
  // v8: the overload fault fields and the admission config joined the
  // sync/real/async fingerprints; engine payloads grew the server-ingestion
  // admission section (dedup set, token buckets, update log, admission
  // tracker — DESIGN.md §15) and four new dropout-breakdown counters.
  // v9: the salvage config joined the sync/real/async fingerprints; engine
  // payloads grew the graceful-degradation section (SalvageTracker,
  // SpeculativeScheduler cursor/counters — DESIGN.md §16), two new
  // dropout-breakdown counters (backup_covered, backup_redundant), the
  // TransportTracker's unique-progress bytes, the surrogate contribution
  // weight in the async buffer, and the salvage metadata on in-flight async
  // outcomes. Older checkpoints are refused (the version field mismatches).
  static constexpr uint32_t kVersion = 9;
  enum class EngineTag : uint32_t { kSync = 1, kAsync = 2, kReal = 3, kVfl = 4 };

  // Crash-consistent save (fsync'd temp file + rename) through `io`: the
  // process-wide fsync'd writer unless one is injected (fault injection,
  // custom storage). Returns false on I/O failure — including an
  // empty/unwritable/directory path — and never crashes the caller.
  static bool Save(const std::string& path, const SyncEngine& engine,
                   DurableFile& io = DefaultDurableFile());
  static bool Save(const std::string& path, const AsyncEngine& engine,
                   DurableFile& io = DefaultDurableFile());
  static bool Save(const std::string& path, const RealFlEngine& engine,
                   DurableFile& io = DefaultDurableFile());
  static bool Save(const std::string& path, const VflEngine& engine,
                   DurableFile& io = DefaultDurableFile());

  // Restores into an engine freshly constructed with the *same* config the
  // checkpoint was taken under. Returns false on header mismatch or a
  // corrupt (truncated / bit-flipped) payload; corruption is detected by the
  // payload hash before LoadState runs, so on a hash mismatch the engine is
  // untouched — never partially loaded.
  static bool Restore(const std::string& path, SyncEngine& engine);
  static bool Restore(const std::string& path, AsyncEngine& engine);
  static bool Restore(const std::string& path, RealFlEngine& engine);
  static bool Restore(const std::string& path, VflEngine& engine);
};

}  // namespace floatfl

#endif  // SRC_FAILURE_CHECKPOINTER_H_
