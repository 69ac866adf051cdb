// Shared core of the trace-driven engines (SyncEngine, AsyncEngine).
//
// Both engines run one client lifecycle over the same simulated population
// and the same server core; they differ in when clients launch and when the
// server aggregates. This base owns what they share and gives each
// lifecycle stage one implementation (DESIGN.md §7):
//   SimulateClientRound  one client's round against its traces;
//   IngestBurst          the quality-space payload of the server core's
//                        ingestion burst (DESIGN.md §15);
//   SalvagePartials      the candidates for the core's partial-work salvage
//                        gate (DESIGN.md §16);
//   BookOutcome          the per-outcome bookkeeping;
//   Snapshot             the run's ExperimentResult.
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
#include "src/fl/client.h"
#include "src/fl/cost_model.h"
#include "src/fl/experiment.h"
#include "src/fl/observation.h"
#include "src/fl/server_core.h"
#include "src/fl/tuning_policy.h"
#include "src/metrics/participation_tracker.h"
#include "src/metrics/resource_accountant.h"
#include "src/models/surrogate_accuracy.h"

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

class SurrogateEngine : public ServerCore {
 public:
  // Resolved configuration (auto-calibrated deadline included).
  const ExperimentConfig& config() const { return config_; }

  // The run so far as an ExperimentResult. The async engine refuses the
  // tree and speculation, so its topology and backup fields stay zero.
  ExperimentResult Snapshot() const;

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

  // Server ingestion (DESIGN.md §15): the core's AdmitBurst at `now_round`
  // over `fresh` (selection order) and replays of each `replay_clients`
  // client, whose refused replays report `replay_observations` at the same
  // index. A refused fresh upload is marked not completed with the
  // verdict's reason; an admitted one gets its weight and, under overload
  // faults, is logged for later replays. An admitted redundant delivery is
  // re-processed in full: its upload leg is charged as waste and it is
  // returned as an extra contribution. A refused one costs a tracker
  // record, a dropout count and one participated=false policy report,
  // nothing more.
  std::vector<ClientContribution> IngestBurst(
      uint64_t now_round, std::span<FreshUpload> fresh, std::span<const size_t> replay_clients,
      std::span<const ClientObservation> replay_observations, const GlobalObservation& global);

  // A salvage candidate: its outcome and the arrival its partial presents at
  // the gate, with the utility of a full update from the client.
  struct PartialUpload {
    ClientRoundOutcome* outcome = nullptr;
    AdmissionController::Arrival arrival;
  };

  // Partial-work salvage (DESIGN.md §16). Keeps the interrupted outcomes
  // (crash, deadline miss, departure, timed-out upload) whose completed
  // fraction clears min_progress, rules on them through the core's
  // AdmitPartials at `now_round`, and marks the admitted ones salvaged. Salvage converts already-spent compute: it never
  // extends the round, re-charges communication, or counts toward a close.
  void SalvagePartials(uint64_t now_round, std::span<const PartialUpload> partials);

  // Books one finished execution: the client's counters, the accountant,
  // the participation tracker, the guard, the transport tracker, the dropout
  // breakdown and the retry cooldown. `round` keys the guard and cooldown.
  void BookOutcome(Client& client, const ClientRoundOutcome& outcome, size_t round);

  // A run both surrogate payloads write in this order: the quarantine count,
  // the dropout breakdown and the accuracy history. `edge_orphaned` is false
  // for the async payload, which has no orphan count.
  void SaveOutcomeBooks(CheckpointWriter& w, bool edge_orphaned) const;
  void LoadOutcomeBooks(CheckpointReader& r, bool edge_orphaned);

  ExperimentConfig config_;
  std::vector<Client> clients_;
  PopulationReference reference_;
  std::unique_ptr<SurrogateAccuracyModel> surrogate_;
  ResourceAccountant accountant_;
  ParticipationTracker tracker_;
  // Wire volume of duplicate/replay deliveries the server fully
  // re-processed (zero when the admission gate rejected them at ingress).
  double redundant_mb_ = 0.0;
  DropoutBreakdown dropout_breakdown_;
  size_t rejected_updates_ = 0;
  std::vector<double> accuracy_history_;
  double now_s_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_SURROGATE_ENGINE_H_
