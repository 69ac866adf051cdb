// Experiment configuration and result records shared by the synchronous and
// asynchronous engines and by every bench binary.
#ifndef SRC_FL_EXPERIMENT_H_
#define SRC_FL_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/agg/aggregator_config.h"
#include "src/data/dataset.h"
#include "src/failure/fault_config.h"
#include "src/guard/guard_config.h"
#include "src/metrics/participation_tracker.h"
#include "src/metrics/resource_accountant.h"
#include "src/models/model_zoo.h"
#include "src/net/adaptive_deadline.h"
#include "src/opt/technique.h"
#include "src/salvage/salvage_config.h"
#include "src/topology/topology_config.h"
#include "src/trace/interference.h"

namespace floatfl {

struct ExperimentConfig {
  // Population and schedule (paper defaults, Section 6.1).
  size_t num_clients = 200;
  size_t clients_per_round = 30;
  size_t rounds = 300;
  size_t epochs = 5;
  size_t batch_size = 20;
  // Synchronous round deadline, seconds. 0 = auto-calibrate to twice the
  // population-median nominal round time (see AutoDeadlineSeconds).
  double deadline_s = 0.0;
  DatasetId dataset = DatasetId::kFemnist;
  ModelId model = ModelId::kResNet34;
  double alpha = 0.1;  // Dirichlet non-IID-ness of the shards; must be positive
  InterferenceScenario interference = InterferenceScenario::kDynamic;
  uint64_t seed = 42;
  // Figure-3 counterfactual: pretend every selected client completes.
  bool assume_no_dropouts = false;
  // FedBuff parameters (async engine only).
  size_t async_concurrency = 100;
  size_t async_buffer = 30;
  // Worker threads for per-client simulation. 0 = hardware_concurrency();
  // 1 = fully sequential (today's exact path). Results are bit-for-bit
  // identical for every value — see DESIGN.md "Determinism & parallelism".
  size_t num_threads = 0;
  // Fault injection and failure handling (DESIGN.md §8). The default
  // (all-zero) FaultConfig is a strict no-op: no fault draws happen and the
  // engines behave bit-for-bit as if the subsystem did not exist.
  FaultConfig faults;
  // Server-side aggregation rule (DESIGN.md §9). For the surrogate engines
  // the robust rules act on contribution qualities (src/agg/quality_agg.h);
  // the default kFedAvg is a strict pass-through.
  AggregatorConfig aggregator;
  // Server-side adaptive sync deadline (DESIGN.md §10). Default off: the
  // sync engine uses the static (auto-calibrated or explicit) deadline
  // byte-identically.
  AdaptiveDeadlineConfig adaptive_deadline;
  // Self-healing guard: divergence watchdog + last-known-good rollback +
  // action quarantine (DESIGN.md §11). Default off: strict no-op, every
  // pre-guard golden byte-identical.
  GuardConfig guard;
  // Hierarchical aggregation tree: clients -> edge aggregators -> root, with
  // edge-level fault injection and deterministic failover (DESIGN.md §13).
  // Default (num_edges == 0) keeps the flat star topology bit-for-bit.
  // Honored by the sync engine; the async engine keeps star semantics and
  // refuses an enabled topology at construction.
  TopologyConfig topology;
  // Server-ingestion admission layer: bounded ingress queue + shedding,
  // idempotent duplicate folding, per-client rate limiting, and the async
  // bounded-staleness rule (DESIGN.md §15). Default off: strict byte-for-byte
  // no-op (async_max_staleness keeps its pinned pre-config default).
  AdmissionConfig admission;
  // Graceful degradation for stragglers: partial-work salvage and
  // speculative re-execution (DESIGN.md §16). Default off: all-or-nothing
  // rounds, every pre-salvage golden byte-identical. Speculation is honored
  // by the sync engine; the async engine has no round deadline and refuses
  // it at construction, like topology.
  SalvageConfig salvage;
};

// Aborts the process with a descriptive message when `config` violates an
// engine invariant. Called by every engine constructor so misconfigurations
// fail at construction, not rounds later.
void ValidateExperimentConfig(const ExperimentConfig& config);

// Why a selected client's round produced no aggregated update. Shared by the
// sync and async engines (and mapped onto by the real engine). The fixed
// underlying type lets metric/guard headers forward-declare the enum without
// pulling in this header.
enum class DropoutReason : uint32_t {
  kNone,
  kUnavailable,     // selected while offline (or during a network blackout)
  kOutOfMemory,
  kMissedDeadline,
  kDeparted,        // availability ended mid-round
  kCrashed,         // injected mid-training process crash
  kCorrupted,       // update failed server-side validation (quarantined)
  kRejected,        // valid but abandoned (over-selection closed the round)
  kTransferTimedOut,  // lossy transport exhausted retries / transfer budget
  kEdgeOrphaned,    // every edge in the client's failover chain was down
  kShed,            // bounded ingress queue full; shed per the configured policy
  kDuplicate,       // at-least-once re-delivery folded by idempotent admission
  kReplayed,        // stale upload from a past round, rejected by the age gate
  kRateLimited,     // the client's token bucket ran dry
  kBackupCovered,   // interrupted primary whose speculative backup delivered
  kBackupRedundant, // speculative execution that lost the first-valid-wins race
};

struct DropoutBreakdown {
  size_t unavailable = 0;   // selected while offline
  size_t out_of_memory = 0;
  size_t missed_deadline = 0;
  size_t departed = 0;      // availability ended mid-round
  size_t crashed = 0;       // injected mid-training crashes
  size_t corrupted = 0;     // updates quarantined by server-side validation
  size_t rejected = 0;      // abandoned by over-selection round close
  size_t transfer_timed_out = 0;  // lossy transport exhausted retries/budget
  size_t edge_orphaned = 0;  // no live edge aggregator to report to
  size_t shed = 0;           // shed by the bounded ingress queue
  size_t duplicate = 0;      // re-deliveries folded by idempotent admission
  size_t replayed = 0;       // stale replays rejected by the age gate
  size_t rate_limited = 0;   // deliveries refused by the token bucket
  size_t backup_covered = 0;   // interrupted primaries whose backup delivered
  size_t backup_redundant = 0; // speculative executions charged as redundant

  size_t Total() const {
    return unavailable + out_of_memory + missed_deadline + departed + crashed + corrupted +
           rejected + transfer_timed_out + edge_orphaned + shed + duplicate + replayed +
           rate_limited + backup_covered + backup_redundant;
  }
};

struct ExperimentResult {
  // Final per-client accuracy statistics (paper's Top-10% / avg / Bottom-10%).
  double accuracy_avg = 0.0;
  double accuracy_top10 = 0.0;
  double accuracy_bottom10 = 0.0;
  double global_accuracy = 0.0;

  size_t total_selected = 0;
  size_t total_completed = 0;
  size_t total_dropouts = 0;
  size_t never_selected = 0;
  size_t never_completed = 0;
  DropoutBreakdown dropout_breakdown;
  // Updates quarantined by server-side validation (subset of
  // dropout_breakdown.corrupted bookkeeping; kept as its own counter so
  // defenses are visible without decoding the breakdown).
  size_t rejected_updates = 0;
  // Attack-vs-defense totals (src/metrics/aggregation_tracker.h): selected
  // Byzantine attackers and the contributions the robust aggregation rule
  // excluded (trimmed tails, Krum rejections). All zero when no attack and
  // the default aggregator are configured.
  size_t byzantine_selected = 0;
  size_t krum_rejections = 0;
  size_t updates_trimmed = 0;
  // Lossy-transport totals (src/metrics/transport_tracker.h). All zero when
  // the transport is disabled. wire_mb is total bytes put on the wire
  // (payload + retransmissions) — the run's bytes-moved total.
  size_t transfer_attempts = 0;
  double wire_mb = 0.0;
  double retransmitted_mb = 0.0;
  double salvaged_mb = 0.0;
  double transfer_backoff_s = 0.0;
  // Self-healing totals (src/metrics/guard_tracker.h). All zero when the
  // guard is disabled.
  size_t guard_snapshots = 0;
  size_t watchdog_triggers = 0;
  size_t rollbacks = 0;
  size_t quarantined_actions = 0;  // Decide() results masked to kNone
  size_t quarantine_openings = 0;  // per-technique cooldown windows opened
  size_t rejected_rewards = 0;
  size_t safe_mode_rounds = 0;
  // Hierarchical-topology totals (src/metrics/topology_tracker.h). All zero
  // on the flat star topology (num_edges == 0).
  size_t edge_crashes = 0;
  size_t edge_blackouts = 0;
  size_t reparented_clients = 0;
  size_t orphaned_clients = 0;
  size_t partials_forwarded = 0;
  size_t partials_lost = 0;
  size_t tampered_partials = 0;
  size_t tampered_rejections = 0;
  size_t late_partials = 0;
  double tier1_wire_mb = 0.0;
  double tier1_retransmitted_mb = 0.0;
  // Crash-recovery totals (src/metrics/recovery_tracker.h). All zero when no
  // RunSupervisor drives the run; cumulative across process lives because the
  // tracker rides inside the engine checkpoint (DESIGN.md §14).
  size_t recovery_restarts = 0;
  size_t recovery_archives_skipped = 0;
  size_t recovery_rounds_replayed = 0;
  size_t recovery_checkpoints_written = 0;
  size_t recovery_checkpoints_failed = 0;
  // Server-ingestion totals (src/metrics/admission_tracker.h). All zero when
  // the admission layer is disabled. redundant_mb is the wire volume of
  // duplicate/replay deliveries an unguarded server fully re-processed —
  // the wasted-work figure the admission gate exists to cut.
  size_t admission_admitted = 0;
  size_t admission_deduplicated = 0;
  size_t admission_shed = 0;
  size_t admission_rate_limited = 0;
  size_t admission_replay_rejected = 0;
  size_t admission_peak_queue_depth = 0;
  double redundant_mb = 0.0;
  // Graceful-degradation totals (src/metrics/salvage_tracker.h). All zero
  // when the salvage layer is disabled. transfer_progress_mb is the unique
  // acked payload bytes across every transfer — on timed-out transfers, the
  // salvageable-progress figure the partial-update path consumes, kept
  // distinct from salvaged_mb/redundant_mb so no byte is double-charged.
  size_t partials_salvaged = 0;
  size_t partials_below_min = 0;
  size_t partials_rejected = 0;
  uint64_t salvaged_steps = 0;
  double salvaged_progress_mb = 0.0;
  size_t backups_planned = 0;
  size_t backups_won = 0;
  size_t backups_redundant = 0;
  size_t deadline_misses_averted = 0;
  double transfer_progress_mb = 0.0;

  ResourceTotals useful;
  ResourceTotals wasted;
  double wall_clock_hours = 0.0;

  std::map<TechniqueKind, ParticipationTracker::TechniqueStats> per_technique;
  // Per-technique failure attribution: dropout counts keyed by the technique
  // the client was running, then by the raw DropoutReason value. Feeds the
  // guard's quarantine heuristic and is useful standalone.
  std::map<TechniqueKind, std::map<uint32_t, size_t>> per_technique_dropouts;
  std::vector<double> accuracy_history;       // global accuracy per round
  std::vector<size_t> per_client_selected;
  std::vector<size_t> per_client_completed;
};

}  // namespace floatfl

#endif  // SRC_FL_EXPERIMENT_H_
