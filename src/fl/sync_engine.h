// Synchronous FL engine (FedAvg-style deadline-driven rounds).
//
// Each round: the attached Selector picks K clients; each selected client's
// round is simulated against its traces (interference, compute, network,
// availability); the attached TuningPolicy (FLOAT, heuristic, static, or
// none) may apply an acceleration technique; completions are aggregated into
// the surrogate convergence model; outcomes feed back to the policy and the
// selector; the wall clock advances by the round duration.
#ifndef SRC_FL_SYNC_ENGINE_H_
#define SRC_FL_SYNC_ENGINE_H_

#include <memory>
#include <vector>

#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/edge_fault_injector.h"
#include "src/failure/fault_injector.h"
#include "src/failure/overload_injector.h"
#include "src/fl/client.h"
#include "src/sim/thread_pool.h"
#include "src/fl/cost_model.h"
#include "src/fl/experiment.h"
#include "src/fl/observation.h"
#include "src/fl/tuning_policy.h"
#include "src/guard/training_guard.h"
#include "src/metrics/admission_tracker.h"
#include "src/metrics/aggregation_tracker.h"
#include "src/metrics/participation_tracker.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/resource_accountant.h"
#include "src/metrics/salvage_tracker.h"
#include "src/metrics/topology_tracker.h"
#include "src/metrics/transport_tracker.h"
#include "src/models/surrogate_accuracy.h"
#include "src/net/adaptive_deadline.h"
#include "src/net/transport.h"
#include "src/salvage/speculative_scheduler.h"
#include "src/selection/selector.h"
#include "src/topology/aggregation_tree.h"

namespace floatfl {

struct ClientRoundOutcome {
  size_t client_id = 0;
  TechniqueKind technique = TechniqueKind::kNone;
  bool completed = false;
  DropoutReason reason = DropoutReason::kNone;
  RoundCosts costs;
  // Time actually spent before completing / giving up, seconds.
  double time_spent_s = 0.0;
  double deadline_diff = 0.0;  // overshoot fraction, 0 when met
  // Injected corruption: the client "completed" but its update is poisoned;
  // server-side validation decides its fate.
  bool corrupted = false;
  uint32_t corrupt_kind = 0;
  // Byzantine attacker: the client completed and its update passes
  // validation, but its contribution quality is adversarially crafted; only
  // a robust aggregation rule can limit the damage.
  bool byzantine = false;
  // Lossy-transport accounting (DESIGN.md §10); all zero when the transport
  // is disabled or no transfer was attempted (blackout / offline / OOM).
  size_t transfer_attempts = 0;
  double retransmitted_mb = 0.0;
  double salvaged_mb = 0.0;
  double transfer_backoff_s = 0.0;
  // Unique acked payload bytes across this round's transfer legs: the full
  // payload for delivered legs, the carried-forward progress for timed-out
  // ones. Distinct from salvaged_mb (bytes a *retry* did not resend).
  double transfer_progress_mb = 0.0;
  // Effective link goodput this round: delivered payload megabits over total
  // transfer seconds (wire + backoff). 0 when nothing was delivered.
  double effective_mbps = 0.0;
  // Graceful-degradation metadata (DESIGN.md §16): the fraction of local
  // work completed before an interruption, quantized to whole local steps.
  // Pure arithmetic over quantities the simulation already computes — filled
  // in even when salvage is disabled (the engine then ignores it). Zero for
  // clean completions and for interruptions with nothing to salvage
  // (blackout, offline, OOM, failed download).
  double salvage_fraction = 0.0;
  size_t salvage_steps = 0;
  size_t salvage_total_steps = 0;
  // Set by the engine when this partial cleared the min-progress bar and the
  // admission gate and re-entered aggregation at step-count weight.
  bool salvaged = false;
};

class SyncEngine {
 public:
  // `selector` is required; `policy` may be null (vanilla baseline).
  // Neither is owned.
  SyncEngine(const ExperimentConfig& config, Selector* selector, TuningPolicy* policy);

  // Runs all configured rounds and returns the aggregate result.
  ExperimentResult Run();

  // Runs a single round (exposed for tests and the fine-tuning benches).
  void RunRound(size_t round);

  ExperimentResult Snapshot() const;

  const SurrogateAccuracyModel& accuracy_model() const { return *surrogate_; }
  std::vector<Client>& clients() { return clients_; }
  double now() const { return now_s_; }
  // Resolved configuration (auto-calibrated deadline included).
  const ExperimentConfig& config() const { return config_; }

  // Simulates one client's round at time `now_s` without recording it
  // (used by tests and benches). `fault` layers injected failures over the
  // natural dropout checks; a default FaultDecision injects none. `round`
  // keys the lossy transport's per-transfer random streams (irrelevant when
  // the transport is disabled).
  ClientRoundOutcome SimulateClient(Client& client, size_t round, double now_s,
                                    TechniqueKind technique, const FaultDecision& fault) const;

  size_t RoundsRun() const { return rounds_run_; }
  size_t RejectedUpdates() const { return rejected_updates_; }
  const FaultInjector& injector() const { return injector_; }
  const AggregationTracker& aggregation_tracker() const { return agg_tracker_; }
  const TransportTracker& transport_tracker() const { return transport_tracker_; }
  const AdaptiveDeadlineController& deadline_controller() const { return deadline_ctrl_; }
  const TrainingGuard& guard() const { return guard_; }
  const EdgeFaultInjector& edge_injector() const { return edge_injector_; }
  const AggregationTree& tree() const { return tree_; }
  const TopologyTracker& topology_tracker() const { return topo_tracker_; }
  // Cumulative server-ingestion accounting (DESIGN.md §15).
  const AdmissionTracker& admission_tracker() const { return admission_tracker_; }
  // Crash-recovery accounting (DESIGN.md §14); recorded by the RunSupervisor
  // and serialized with the engine so totals survive process kills.
  RecoveryTracker& recovery_tracker() { return recovery_tracker_; }
  const RecoveryTracker& recovery_tracker() const { return recovery_tracker_; }
  // Graceful-degradation accounting and the backup planner (DESIGN.md §16).
  const SalvageTracker& salvage_tracker() const { return salvage_tracker_; }
  const SpeculativeScheduler& speculative_scheduler() const { return scheduler_; }
  // The deadline governing the current round: the static configured value,
  // or the adaptive controller's latest proposal when it is enabled.
  double CurrentRoundDeadline() const { return round_deadline_s_; }

  // Checkpoint/resume of all mutable engine state (DESIGN.md §8). The
  // population, surrogate tables and deadline are rebuilt from config at
  // construction; Save/Load cover everything that advances during Run().
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  ExperimentConfig config_;
  Selector* selector_;
  TuningPolicy* policy_;
  // Work pool for the per-client simulation fan-out; null when
  // num_threads resolves to 1 (fully sequential path).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Client> clients_;
  PopulationReference reference_;
  std::unique_ptr<SurrogateAccuracyModel> surrogate_;
  ResourceAccountant accountant_;
  ParticipationTracker tracker_;
  FaultInjector injector_;
  AggregationTracker agg_tracker_;
  // Lossy transport and its accounting (DESIGN.md §10); disabled (and the
  // engine byte-identical to the plain cost-model path) by default.
  Transport transport_;
  TransportTracker transport_tracker_;
  AdaptiveDeadlineController deadline_ctrl_;
  // Self-healing guard (DESIGN.md §11); a disabled guard is a strict no-op.
  TrainingGuard guard_;
  // Hierarchical aggregation tree (DESIGN.md §13); disabled (star topology,
  // byte-identical engine) by default. The edge transport carries the
  // edge -> root partial-aggregate uploads; the edge deadline controller
  // re-plans the root's patience over per-edge round times.
  EdgeFaultInjector edge_injector_;
  AggregationTree tree_;
  TopologyTracker topo_tracker_;
  Transport edge_transport_;
  AdaptiveDeadlineController edge_deadline_ctrl_;
  // Server-ingestion admission layer and its fault side (DESIGN.md §15);
  // both disabled (and the engine byte-identical) by default.
  OverloadInjector overload_;
  AdmissionController admission_;
  AdmissionTracker admission_tracker_;
  UpdateLog update_log_;
  // Wire volume of duplicate/replay deliveries the server fully
  // re-processed (zero when the admission gate rejected them at ingress).
  double redundant_mb_ = 0.0;
  RecoveryTracker recovery_tracker_;
  // Graceful degradation (DESIGN.md §16); both strict no-ops by default.
  SalvageTracker salvage_tracker_;
  SpeculativeScheduler scheduler_;
  DropoutBreakdown dropout_breakdown_;
  size_t rejected_updates_ = 0;
  std::vector<double> accuracy_history_;
  double now_s_ = 0.0;
  size_t rounds_run_ = 0;
  // Deadline in force this round; equals config_.deadline_s until the
  // adaptive controller (if enabled) proposes otherwise.
  double round_deadline_s_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_SYNC_ENGINE_H_
