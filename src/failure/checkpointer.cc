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

void WriteFaultConfig(CheckpointWriter& w, const FaultConfig& f) {
  w.F64(f.crash_prob);
  w.F64(f.corrupt_prob);
  w.F64(f.blackout_period_s);
  w.F64(f.blackout_duration_s);
  w.F64(f.flaky_fraction);
  w.F64(f.flaky_enter_prob);
  w.F64(f.flaky_exit_prob);
  w.F64(f.flaky_crash_prob);
  w.F64(f.overcommit);
  w.Size(f.retry_cooldown_rounds);
  w.F64(f.reject_norm_threshold);
  w.F64(f.corrupt_scale);
  w.U32(static_cast<uint32_t>(f.byzantine_mode));
  w.F64(f.byzantine_fraction);
  w.F64(f.byzantine_scale);
  w.Bool(f.transport);
  w.F64(f.chunk_loss_prob);
  w.F64(f.link_blackout_prob);
  w.F64(f.transport_chunk_mb);
  w.Size(f.max_transfer_retries);
  w.Bool(f.resumable_uploads);
  w.Size(f.byzantine_start_round);
  w.F64(f.duplicate_prob);
  w.F64(f.replay_prob);
  w.F64(f.reorder_prob);
  w.F64(f.stampede_prob);
  w.Size(f.stampede_factor);
}

void WriteAdmissionConfig(CheckpointWriter& w, const AdmissionConfig& a) {
  w.Size(a.queue_capacity);
  w.U32(static_cast<uint32_t>(a.shed_policy));
  w.Bool(a.dedup);
  w.Size(a.dedup_window_rounds);
  w.Bool(a.reject_replays);
  w.Size(a.max_update_age);
  w.F64(a.rate_tokens_per_round);
  w.F64(a.rate_bucket_cap);
  w.F64(a.async_max_staleness);
  w.Bool(a.staleness_downweight);
  w.F64(a.staleness_decay);
}

void WriteSalvageConfig(CheckpointWriter& w, const SalvageConfig& s) {
  w.Bool(s.enabled);
  w.F64(s.min_progress);
  w.Bool(s.speculation);
  w.F64(s.speculation_margin);
  w.F64(s.max_backup_fraction);
}

void WriteGuardConfig(CheckpointWriter& w, const GuardConfig& g) {
  w.Bool(g.enabled);
  w.F64(g.collapse_threshold);
  w.Size(g.patience);
  w.F64(g.stall_epsilon);
  w.Size(g.snapshot_ring);
  w.Size(g.snapshot_every);
  w.F64(g.min_snapshot_coverage);
  w.Size(g.safe_mode_rounds);
  w.Size(g.quarantine_min_trials);
  w.F64(g.quarantine_failure_rate);
  w.Size(g.quarantine_cooldown_rounds);
  w.Size(g.quarantine_max_strikes);
}

void WriteAggregatorConfig(CheckpointWriter& w, const AggregatorConfig& a) {
  w.U32(static_cast<uint32_t>(a.kind));
  w.F64(a.trim_fraction);
  w.Size(a.krum_assumed_byzantine);
  w.Size(a.multi_krum_m);
  w.F64(a.clip_norm);
}

void WriteTopologyConfig(CheckpointWriter& w, const TopologyConfig& t) {
  w.Size(t.num_edges);
  w.Bool(t.failover);
  w.Size(t.edge_retry_cooldown_rounds);
  w.F64(t.edge_overcommit);
  w.F64(t.edge_crash_prob);
  w.F64(t.edge_blackout_prob);
  w.F64(t.edge_flaky_fraction);
  w.F64(t.edge_flaky_enter_prob);
  w.F64(t.edge_flaky_exit_prob);
  w.F64(t.edge_flaky_crash_prob);
  w.U32(static_cast<uint32_t>(t.edge_byzantine_mode));
  w.F64(t.edge_byzantine_fraction);
  w.F64(t.edge_byzantine_scale);
  w.F64(t.edge_link_loss_prob);
  w.F64(t.edge_link_blackout_prob);
  w.F64(t.edge_chunk_mb);
  w.Size(t.edge_max_retries);
  WriteAggregatorConfig(w, t.edge_aggregator);
  w.Bool(t.edge_adaptive_deadline.enabled);
  w.F64(t.edge_adaptive_deadline.min_factor);
  w.F64(t.edge_adaptive_deadline.max_factor);
  w.F64(t.edge_adaptive_deadline.headroom);
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

}  // namespace

uint64_t FingerprintConfig(const ExperimentConfig& config) {
  CheckpointWriter w;
  w.Size(config.num_clients);
  w.Size(config.clients_per_round);
  w.Size(config.rounds);
  w.Size(config.epochs);
  w.Size(config.batch_size);
  w.F64(config.deadline_s);
  w.U32(static_cast<uint32_t>(config.dataset));
  w.U32(static_cast<uint32_t>(config.model));
  w.F64(config.alpha);
  w.U32(static_cast<uint32_t>(config.interference));
  w.U64(config.seed);
  w.Bool(config.assume_no_dropouts);
  w.Size(config.async_concurrency);
  w.Size(config.async_buffer);
  WriteFaultConfig(w, config.faults);
  WriteAggregatorConfig(w, config.aggregator);
  w.Bool(config.adaptive_deadline.enabled);
  w.F64(config.adaptive_deadline.min_factor);
  w.F64(config.adaptive_deadline.max_factor);
  w.F64(config.adaptive_deadline.headroom);
  WriteGuardConfig(w, config.guard);
  WriteTopologyConfig(w, config.topology);
  WriteAdmissionConfig(w, config.admission);
  WriteSalvageConfig(w, config.salvage);
  return Fnv1a(w.buffer());
}

uint64_t FingerprintConfig(const RealFlConfig& config) {
  CheckpointWriter w;
  w.Size(config.num_clients);
  w.Size(config.clients_per_round);
  w.Size(config.num_classes);
  w.Size(config.input_dim);
  w.F64(config.class_separation);
  w.F64(config.alpha);
  w.SizeVec(config.hidden_dims);
  w.F32(config.sgd.learning_rate);
  w.Size(config.sgd.batch_size);
  w.Size(config.sgd.epochs);
  w.Size(config.sgd.frozen_layers);
  w.Size(config.sgd.max_steps);
  w.Size(config.test_samples_per_class);
  w.U64(config.seed);
  WriteFaultConfig(w, config.faults);
  WriteAggregatorConfig(w, config.aggregator);
  WriteGuardConfig(w, config.guard);
  WriteTopologyConfig(w, config.topology);
  WriteAdmissionConfig(w, config.admission);
  WriteSalvageConfig(w, config.salvage);
  return Fnv1a(w.buffer());
}

uint64_t FingerprintConfig(const VflConfig& config) {
  CheckpointWriter w;
  w.Size(config.num_parties);
  w.Size(config.features_per_party);
  w.Size(config.embedding_dim);
  w.Size(config.num_classes);
  w.Size(config.train_samples);
  w.Size(config.test_samples);
  w.F64(config.class_separation);
  w.F32(config.learning_rate);
  w.Size(config.batch_size);
  w.U64(config.seed);
  WriteFaultConfig(w, config.faults);
  WriteGuardConfig(w, config.guard);
  return Fnv1a(w.buffer());
}

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
