// Server core of the horizontal engines (SyncEngine, AsyncEngine,
// RealFlEngine).
//
// FLOAT sits on top of an FL server, so its admission, salvage and topology
// defenses must behave the same in every engine. This base builds the
// server-side books once and gives each server stage one implementation
// (DESIGN.md §7):
//   BeginRound      the round start, edge tier included (DESIGN.md §13);
//   DecideCohort    the guard-masked technique decisions and fault draws;
//   BookTreeSlot    a selected client's orphan or foster-edge booking;
//   AdmitBurst      the ingestion burst (DESIGN.md §15);
//   AdmitPartials   the partial-work admission gate (DESIGN.md §16);
//   AggregateEdges  the edge tier: fold, tamper, forward, patience and the
//                   root's validation (DESIGN.md §13);
//   PolicyCredit    the policy's per-client accuracy credit;
//   CloseRound      the guard's snapshot-or-rollback (DESIGN.md §11).
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
#include <utility>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/agg/aggregator.h"
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

  // One selected slot of a round: its client, technique and fault draw.
  struct CohortSlot {
    size_t client_id = 0;
    TechniqueKind technique = TechniqueKind::kNone;
    FaultDecision fault;
  };
  // In slot order, so a stateful policy draws in a fixed order: the
  // technique `decide(slot)` picks, under the guard's mask, and the fault
  // draw at `now`.
  std::vector<CohortSlot> DecideCohort(size_t round, std::span<const size_t> clients, double now,
                                       const std::function<TechniqueKind(size_t)>& decide);

  // True when the tree is on and every edge in the client's failover chain
  // is down: the task push has nowhere to land and the client never runs.
  bool Orphaned(size_t client_id) const;
  // Books a selected slot's place in the tree: `orphaned` when its ruling
  // is that no live edge served it, else reparented when a foster edge did.
  void BookTreeSlot(size_t client_id, bool orphaned);

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

  // A payload's way through the edge tier. An `Update` has a `client_id`;
  // an edge forwards a list of them, which the root validates one by one.
  template <typename Update>
  struct EdgeRule {
    // Folds a non-empty cohort into the partial; `stats` gets the exclusions.
    std::function<std::vector<Update>(std::vector<Update>, AggregatorStats* stats)> fold;
    std::function<void(Update&, size_t edge)> tamper;  // a Byzantine edge's rewrite
    std::function<bool(const Update&)> valid;          // the root's validation
    // The root's patience, if any: drops late edges from `arrived`.
    std::function<void(std::vector<size_t>& arrived)> patience;
  };

  // The edge tier (DESIGN.md §13): groups `updates` by effective edge, folds
  // each edge's cohort, lets a Byzantine edge tamper, forwards the partials
  // (`partial_mb` each) in edge order, applies the root's patience and
  // validates at the root. Replaces `updates` by what reaches the root and
  // returns the coverage: the fraction of the updates that entered the tree
  // that reached the root (1 with the tree off or nothing to aggregate).
  template <typename Update>
  double AggregateEdges(size_t round, std::span<const EdgeFaultDecision> decisions,
                        double partial_mb, const EdgeRule<Update>& rule,
                        std::vector<Update>& updates);

  // A client's accuracy credit: the round's accuracy delta scaled by the
  // quality of its technique, so the policy feels the accuracy cost of
  // aggressive accelerations, sanitized by the guard.
  double PolicyCredit(double accuracy_delta, TechniqueKind technique);

  // The guard's round close (DESIGN.md §11): snapshot or rollback of the
  // engine's payload (`save`, `restore`) followed by the policy. True when it
  // rolled back.
  bool CloseRound(size_t round, const HealthSignal& health, const TrainingGuard::SaveFn& save,
                  const TrainingGuard::RestoreFn& restore);

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

 private:
  // Carries `edge`'s partial aggregate over the inter-tier link and books
  // it. False when the link lost it, and with it every update behind it.
  bool ForwardPartial(size_t round, size_t edge, double partial_mb);
};

template <typename Update>
double ServerCore::AggregateEdges(size_t round, std::span<const EdgeFaultDecision> decisions,
                                  double partial_mb, const EdgeRule<Update>& rule,
                                  std::vector<Update>& updates) {
  if (!tree_.enabled() || updates.empty()) {
    return 1.0;
  }
  const size_t entered = updates.size();
  std::vector<std::vector<Update>> partials(tree_.num_edges());
  for (Update& update : updates) {
    // An admitted replay from a client orphaned this round has no live edge
    // to land on, so it never reaches the root.
    const size_t edge = tree_.EffectiveEdge(update.client_id);
    if (edge != AggregationTree::kOrphaned) {
      partials[edge].push_back(std::move(update));
    }
  }
  updates.clear();
  std::vector<size_t> cohort(partials.size(), 0);
  std::vector<size_t> arrived;
  for (size_t edge = 0; edge < partials.size(); ++edge) {
    if (partials[edge].empty()) {
      continue;
    }
    cohort[edge] = partials[edge].size();
    AggregatorStats stats;
    partials[edge] = rule.fold(std::move(partials[edge]), &stats);
    topo_tracker_.RecordEdgeAggExclusions(stats.updates_clipped + stats.krum_rejections +
                                          stats.updates_trimmed);
    if (edge_injector_.enabled() && decisions[edge].byzantine) {
      for (Update& update : partials[edge]) {
        rule.tamper(update, edge);
      }
      topo_tracker_.RecordTampered();
    }
    // Losing the partial loses every update behind it: the blast-radius
    // asymmetry that makes edge links worth hardening.
    if (ForwardPartial(round, edge, partial_mb) && !partials[edge].empty()) {
      arrived.push_back(edge);
    }
  }
  if (rule.patience) {
    rule.patience(arrived);
  }
  size_t reached = 0;
  for (size_t edge : arrived) {
    const size_t forwarded = partials[edge].size();
    size_t accepted = 0;
    for (Update& update : partials[edge]) {
      if (rule.valid(update)) {
        updates.push_back(std::move(update));
        ++accepted;
      }
    }
    if (accepted < forwarded) {
      topo_tracker_.RecordTamperedRejections(forwarded - accepted);
    }
    // A partial accepted whole covers its cohort; a partial validated item
    // by item covers the accepted share of it.
    reached += cohort[edge] * accepted / forwarded;
  }
  return static_cast<double>(reached) / static_cast<double>(entered);
}

}  // namespace floatfl

#endif  // SRC_FL_SERVER_CORE_H_
