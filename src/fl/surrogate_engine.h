// Shared core of the trace-driven engines (SyncEngine, AsyncEngine).
//
// Both engines run one client lifecycle over the same simulated population
// and the same server-side books; they differ in when clients launch and
// when the server aggregates. This base owns what they share and gives each
// lifecycle stage one implementation (DESIGN.md §7):
//   SimulateClientRound  one client's round against its traces;
//   IngestBurst          the server-ingestion burst (DESIGN.md §15);
//   SalvagePartials      the partial-work salvage gate (DESIGN.md §16);
//   BookOutcome          the per-outcome bookkeeping.
// The engines supply the rest: selection or launch order, observe/decide,
// validation and the round close, aggregation, feedback and the clock.
#ifndef SRC_FL_SURROGATE_ENGINE_H_
#define SRC_FL_SURROGATE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/failure/fault_injector.h"
#include "src/failure/overload_injector.h"
#include "src/fl/client.h"
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
#include "src/metrics/transport_tracker.h"
#include "src/models/surrogate_accuracy.h"
#include "src/net/transport.h"
#include "src/sim/thread_pool.h"

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

class SurrogateEngine {
 public:
  const SurrogateAccuracyModel& accuracy_model() const { return *surrogate_; }
  // Resolved configuration (auto-calibrated deadline included).
  const ExperimentConfig& config() const { return config_; }
  size_t RejectedUpdates() const { return rejected_updates_; }
  const AggregationTracker& aggregation_tracker() const { return agg_tracker_; }
  const TransportTracker& transport_tracker() const { return transport_tracker_; }
  const TrainingGuard& guard() const { return guard_; }
  // Cumulative server-ingestion accounting (DESIGN.md §15).
  const AdmissionTracker& admission_tracker() const { return admission_tracker_; }
  // Crash-recovery accounting (DESIGN.md §14); recorded by the RunSupervisor
  // and serialized with the engine so totals survive process kills.
  RecoveryTracker& recovery_tracker() { return recovery_tracker_; }
  const RecoveryTracker& recovery_tracker() const { return recovery_tracker_; }
  // Graceful-degradation accounting (DESIGN.md §16).
  const SalvageTracker& salvage_tracker() const { return salvage_tracker_; }

 protected:
  // Builds the population and the shared books from `config`, validating it
  // and resolving an auto-calibrated deadline. `participants` is the update
  // count one aggregation folds in, which the surrogate model is tuned to.
  SurrogateEngine(const ExperimentConfig& config, TuningPolicy* policy, size_t participants);

  // One client's round at `now_s`, not booked. `transfer_key` keys the lossy
  // transport's per-transfer random streams. `budget_s` is the time the
  // client has (sync: the round deadline; FedBuff: unbounded), and
  // `deadline_norm_s` the finite deadline that normalises deadline_diff.
  // Thread-safe for distinct clients: touches only `client`.
  ClientRoundOutcome SimulateClientRound(Client& client, size_t transfer_key, double now_s,
                                         TechniqueKind technique, const FaultDecision& fault,
                                         double budget_s, double deadline_norm_s) const;

  // The quality the server aggregates for `outcome`'s update. A Byzantine
  // client's crafted quality is keyed by `attack_round`.
  double UploadQuality(const ClientRoundOutcome& outcome, size_t attack_round) const;

  // A validated upload at the server's door. `arrival` carries its dedup
  // key, staleness and shedding utility; `observation` is what a refused
  // copy of it reports to the policy.
  struct FreshUpload {
    ClientRoundOutcome* outcome = nullptr;
    const ClientObservation* observation = nullptr;
    AdmissionController::Arrival arrival;
    double quality = 0.0;
    // Set by IngestBurst when the upload is admitted: its contribution
    // weight under staleness downweighting.
    double weight = 1.0;
  };
  // A selected client whose last accepted upload the overload injector may
  // replay in this burst.
  struct ReplaySource {
    size_t client_id = 0;
    const ClientObservation* observation = nullptr;
  };

  // Server ingestion (DESIGN.md §15). The burst is `fresh` in arrival order,
  // then the injector's at-least-once copies of each, then its replays of
  // each source's logged upload, ruled on by one Admit call at `now_round`.
  // A refused fresh upload is marked not completed with the verdict's
  // reason; an admitted one gets its weight and, under overload faults, is
  // logged for later replays. An admitted redundant delivery is re-processed
  // in full: its upload leg is charged as waste and it is returned as an
  // extra contribution. A refused one costs a tracker record, a dropout
  // count and one participated=false policy report, nothing more.
  std::vector<ClientContribution> IngestBurst(uint64_t now_round, std::span<FreshUpload> fresh,
                                              std::span<const ReplaySource> replays,
                                              const GlobalObservation& global);

  // A salvage candidate: its outcome and the arrival its partial presents at
  // the gate, with the utility of a full update from the client.
  struct PartialUpload {
    ClientRoundOutcome* outcome = nullptr;
    AdmissionController::Arrival arrival;
  };

  // Partial-work salvage (DESIGN.md §16). Keeps the interrupted outcomes
  // (crash, deadline miss, departure, timed-out upload) whose completed
  // fraction clears min_progress, scales each one's utility by that
  // fraction, rules on them in one Admit call at `now_round`, and marks the
  // admitted ones salvaged. Salvage converts already-spent compute: it never
  // extends the round, re-charges communication, or counts toward a close.
  void SalvagePartials(uint64_t now_round, std::span<const PartialUpload> partials);

  // Books one finished execution: the client's counters, the accountant,
  // the participation tracker, the guard, the transport tracker, the dropout
  // breakdown and the retry cooldown. `round` keys the guard and cooldown.
  void BookOutcome(Client& client, const ClientRoundOutcome& outcome, size_t round);

  ExperimentConfig config_;
  TuningPolicy* policy_;
  // Work pool for the per-client simulation fan-out; null when num_threads
  // resolves to 1 (fully sequential path).
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
  // Self-healing guard (DESIGN.md §11); a disabled guard is a strict no-op.
  TrainingGuard guard_;
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
  SalvageTracker salvage_tracker_;
  DropoutBreakdown dropout_breakdown_;
  size_t rejected_updates_ = 0;
  std::vector<double> accuracy_history_;
  double now_s_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_SURROGATE_ENGINE_H_
