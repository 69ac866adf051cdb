// Asynchronous FL engine modeling FedBuff (Nguyen et al. [51]).
//
// Up to `async_concurrency` clients train concurrently; completed updates
// enter a buffer and every `async_buffer` updates are aggregated into a new
// model version. Slow clients keep training on stale versions; staleness
// discounts their contribution, and updates staler than the configured
// bound (AdmissionConfig::async_max_staleness, DESIGN.md §15) are
// discarded. Over-selection makes FedBuff fast in wall-clock but heavy in
// aggregate client resource spend — the trade-off of Figure 2b.
#ifndef SRC_FL_ASYNC_ENGINE_H_
#define SRC_FL_ASYNC_ENGINE_H_

#include <memory>
#include <vector>

#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/fault_injector.h"
#include "src/failure/overload_injector.h"
#include "src/fl/client.h"
#include "src/fl/experiment.h"
#include "src/fl/observation.h"
#include "src/fl/sync_engine.h"
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

class AsyncEngine {
 public:
  // `policy` may be null. Not owned.
  AsyncEngine(const ExperimentConfig& config, TuningPolicy* policy);

  // Runs until `config.rounds` aggregations have happened.
  ExperimentResult Run();

  // Runs until `target_version` aggregations have happened (no-op when
  // already past). Exposed for checkpoint/resume tests.
  void RunUntil(size_t target_version);

  // Processes one scheduler step: launch available clients, then retire the
  // earliest finisher (or just advance time when nobody is in flight).
  void StepOnce();

  ExperimentResult Snapshot() const;

  const SurrogateAccuracyModel& accuracy_model() const { return *surrogate_; }
  // Resolved configuration (auto-calibrated deadline included).
  const ExperimentConfig& config() const { return config_; }
  size_t Version() const { return version_; }
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

  // Checkpoint/resume of all mutable engine state (DESIGN.md §8).
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  struct InFlight {
    size_t client_id;
    double finish_time_s;
    size_t start_version;
    TechniqueKind technique;
    ClientRoundOutcome outcome;
    ClientObservation observation;
  };

  void LaunchClients();
  // Thread-safe for distinct clients: touches only `client` and config_.
  // `transfer_round` keys the lossy transport's per-transfer random streams:
  // the client's launch count (its `times_selected` before this launch),
  // async FL's per-client round analogue — the same key the fault injector
  // uses, so transfers stay invariant across thread counts and resumes.
  ClientRoundOutcome SimulateAsyncClient(Client& client, size_t transfer_round, double now_s,
                                         TechniqueKind technique,
                                         const FaultDecision& fault) const;

  ExperimentConfig config_;
  TuningPolicy* policy_;
  // Work pool for the launch-batch simulation fan-out; null when
  // num_threads resolves to 1 (fully sequential path).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Client> clients_;
  PopulationReference reference_;
  std::unique_ptr<SurrogateAccuracyModel> surrogate_;
  ResourceAccountant accountant_;
  ParticipationTracker tracker_;
  FaultInjector injector_;
  AggregationTracker agg_tracker_;
  // Lossy transport and its accounting (DESIGN.md §10); disabled by default.
  Transport transport_;
  TransportTracker transport_tracker_;
  // Self-healing guard (DESIGN.md §11); rounds are keyed by the aggregation
  // version (async FL's round analogue). A disabled guard is a strict no-op.
  TrainingGuard guard_;
  // Server-ingestion admission layer and its fault side (DESIGN.md §15);
  // both disabled (and the engine byte-identical) by default. Bursts are
  // keyed by the aggregation version.
  OverloadInjector overload_;
  AdmissionController admission_;
  AdmissionTracker admission_tracker_;
  UpdateLog update_log_;
  // Wire volume of duplicate/replay deliveries the server fully
  // re-processed (zero when the admission gate rejected them at ingress).
  double redundant_mb_ = 0.0;
  RecoveryTracker recovery_tracker_;
  // Partial-work salvage accounting (DESIGN.md §16); no-op by default.
  SalvageTracker salvage_tracker_;
  DropoutBreakdown dropout_breakdown_;
  size_t rejected_updates_ = 0;
  // Byzantine completers retired since the last aggregation (folded into the
  // tracker record at each buffer flush).
  size_t pending_byzantine_ = 0;
  std::vector<double> accuracy_history_;
  Rng rng_;
  std::vector<InFlight> in_flight_;
  std::vector<bool> busy_;
  std::vector<ClientContribution> buffer_;
  size_t version_ = 0;
  double now_s_ = 0.0;
  double last_accuracy_delta_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_ASYNC_ENGINE_H_
