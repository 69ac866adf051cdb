// Server core of the horizontal engines (SyncEngine, AsyncEngine,
// RealFlEngine).
//
// FLOAT sits on top of an FL server, so its admission, salvage and topology
// defenses must behave the same in every engine. This base builds the
// server-side books once and gives each server stage that does not depend on
// the update payload one implementation (DESIGN.md §7):
//   AdmitBurst      the ingestion burst (DESIGN.md §15);
//   AdmitPartials   the partial-work admission gate (DESIGN.md §16);
//   BeginRound      the round start, edge tier included (DESIGN.md §13);
//   ForwardPartial  one edge partial over the inter-tier link.
// The engines supply the payload: quality-space contributions and waste
// booking in the surrogate engines, parameter vectors and FedAvg weights in
// the real engine.
#ifndef SRC_FL_SERVER_CORE_H_
#define SRC_FL_SERVER_CORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/edge_fault_injector.h"
#include "src/failure/fault_config.h"
#include "src/failure/fault_injector.h"
#include "src/failure/overload_injector.h"
#include "src/fl/tuning_policy.h"
#include "src/guard/guard_config.h"
#include "src/guard/training_guard.h"
#include "src/metrics/admission_tracker.h"
#include "src/metrics/aggregation_tracker.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/salvage_tracker.h"
#include "src/metrics/topology_tracker.h"
#include "src/metrics/transport_tracker.h"
#include "src/net/transport.h"
#include "src/salvage/salvage_config.h"
#include "src/sim/thread_pool.h"
#include "src/topology/aggregation_tree.h"
#include "src/topology/topology_config.h"

namespace floatfl {

class ServerCore {
 public:
  const FaultInjector& injector() const { return injector_; }
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
  // The edge tier (DESIGN.md §13).
  const EdgeFaultInjector& edge_injector() const { return edge_injector_; }
  const AggregationTree& tree() const { return tree_; }
  const TopologyTracker& topology_tracker() const { return topo_tracker_; }

 protected:
  // Validates the sub-configs every horizontal engine's config carries and
  // builds the books from them. `policy` may be null.
  ServerCore(uint64_t seed, size_t num_clients, size_t num_threads, const FaultConfig& faults,
             const GuardConfig& guard, const TopologyConfig& topology,
             const AdmissionConfig& admission, const SalvageConfig& salvage, TuningPolicy* policy);

  // Starts a server round: advances the client fault injector and the guard
  // to `round`, then the edge tier (DESIGN.md §13): draws each edge's fault
  // decision, books crashes and blackouts, and refreshes the failover
  // assignment before any client is tasked. Returns the edge decisions,
  // none when the tree is off.
  std::vector<EdgeFaultDecision> BeginRound(size_t round);

  // True when uploads reach aggregation through ingestion bursts: overload
  // faults or the admission gate are on.
  bool IngestionOn() const { return overload_.enabled() || admission_.enabled(); }

  // One delivery of an ingestion burst.
  struct IngressDelivery {
    enum class Kind { kFresh, kDuplicate, kReplay };
    Kind kind = Kind::kFresh;
    // The fresh upload delivered or copied, or the replaying client, as an
    // index into AdmitBurst's `fresh` or `replay_clients`.
    size_t source = 0;
    // The replayed upload (kReplay only).
    const LoggedUpload* logged = nullptr;
    AdmissionController::Arrival arrival;
  };
  using VerdictFn =
      std::function<void(const IngressDelivery&, const AdmissionController::Verdict&)>;
  using LogEntryFn = std::function<LoggedUpload(size_t fresh_index)>;

  // Server ingestion (DESIGN.md §15). The burst is the `fresh` uploads in the
  // overload injector's arrival order, then its at-least-once copies of each
  // (same keys), then its replays of each `replay_clients` client's logged
  // upload from before `round` (at the logged keys, with the logged
  // `*replay_utility` discounted by staleness). One Admit call at `round`,
  // recorded into `tracker`, rules on it, and `on_verdict` sees every
  // delivery in burst order. Under overload faults each admitted fresh upload
  // is then logged as `log_entry(index)` stamped with its keys: only after
  // every replay has read the entry it replaces.
  void AdmitBurst(uint64_t round, std::span<const AdmissionController::Arrival> fresh,
                  std::span<const size_t> replay_clients, double LoggedUpload::*replay_utility,
                  AdmissionTracker* tracker, const VerdictFn& on_verdict,
                  const LogEntryFn& log_entry);

  // A partial update at the salvage gate: its arrival at the utility of a
  // full update from the client, and the work a salvage of it books.
  struct PartialArrival {
    AdmissionController::Arrival arrival;
    double fraction = 0.0;  // completed fraction of the local work
    size_t steps = 0;
    double acked_mb = 0.0;  // upload bytes the salvage reuses
  };

  // Partial-work salvage gate (DESIGN.md §16): one Admit call at `round`,
  // recorded into `tracker`, rules on `partials` with each utility scaled by
  // its completed fraction; the salvage tracker books each refusal and each
  // salvage. Returns the verdicts; no partials make no Admit call.
  std::vector<AdmissionController::Verdict> AdmitPartials(uint64_t round,
                                                          std::span<const PartialArrival> partials,
                                                          AdmissionTracker* tracker);

  // Carries `edge`'s partial aggregate over the inter-tier link and books
  // it. False when the link lost it, and with it every update behind it.
  bool ForwardPartial(size_t round, size_t edge, double partial_mb);

  // The attached policy's state behind a presence flag, as every engine
  // payload and guard snapshot stores it.
  void SavePolicy(CheckpointWriter& w) const;
  // Reads what SavePolicy wrote into the attached policy when both sides
  // have one. False when the presence flags differ: a guard snapshot taken
  // before an attach or detach, or a mismatched or failed checkpoint.
  bool LoadPolicy(CheckpointReader& r);

  // Runs of shared books every engine payload writes in this order: the
  // ingress layer (gate, log, tracker) and the edge tier (injector, tree,
  // tracker).
  void SaveIngress(CheckpointWriter& w) const;
  void LoadIngress(CheckpointReader& r);
  void SaveEdgeTier(CheckpointWriter& w) const;
  void LoadEdgeTier(CheckpointReader& r);

  TuningPolicy* policy_;
  // Work pool for the per-client fan-out; null when num_threads resolves to
  // 1 (fully sequential path).
  std::unique_ptr<ThreadPool> pool_;
  FaultInjector injector_;
  // Lossy transport and its accounting (DESIGN.md §10); disabled by default.
  Transport transport_;
  TransportTracker transport_tracker_;
  AggregationTracker agg_tracker_;
  // Self-healing guard (DESIGN.md §11); a disabled guard is a strict no-op.
  TrainingGuard guard_;
  // Server-ingestion admission layer and its fault side (DESIGN.md §15);
  // both disabled (and the engine byte-identical) by default.
  OverloadInjector overload_;
  AdmissionController admission_;
  AdmissionTracker admission_tracker_;
  UpdateLog update_log_;
  SalvageTracker salvage_tracker_;
  RecoveryTracker recovery_tracker_;
  // Hierarchical aggregation tree (DESIGN.md §13); disabled (star topology,
  // byte-identical engine) by default. The edge transport carries the
  // edge -> root partial aggregates.
  EdgeFaultInjector edge_injector_;
  AggregationTree tree_;
  TopologyTracker topo_tracker_;
  Transport edge_transport_;
};

}  // namespace floatfl

#endif  // SRC_FL_SERVER_CORE_H_
