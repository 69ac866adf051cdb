#include "src/fl/server_core.h"

#include <numeric>
#include <utility>

namespace floatfl {

ServerCore::ServerCore(uint64_t seed, size_t num_clients, size_t num_threads,
                       const FaultConfig& faults, const GuardConfig& guard,
                       const TopologyConfig& topology, const AdmissionConfig& admission,
                       TuningPolicy* policy)
    : policy_(policy) {
  const size_t threads = ResolveThreadCount(num_threads);
  if (threads > 1) {
    // The calling thread participates in every ParallelFor, so `threads`
    // total threads do client work.
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  injector_ = FaultInjector(faults, seed, num_clients);
  transport_ = Transport(faults, seed);
  guard_ = TrainingGuard(guard);
  overload_ = OverloadInjector(faults, seed);
  admission_ = AdmissionController(admission);
  update_log_ = UpdateLog(num_clients);
  edge_injector_ = EdgeFaultInjector(topology, seed, topology.num_edges);
  tree_ = AggregationTree(topology, num_clients);
  edge_transport_ =
      Transport(topology.LinkFaultConfig(), seed ^ TopologyConfig::kEdgeLinkSeedSalt);
}

void ServerCore::AdmitBurst(uint64_t round, std::span<const AdmissionController::Arrival> fresh,
                            std::span<const size_t> replay_clients,
                            double LoggedUpload::*replay_utility, AdmissionTracker* tracker,
                            const VerdictFn& on_verdict, const LogEntryFn& log_entry) {
  using Kind = IngressDelivery::Kind;
  std::vector<size_t> arrival_order(fresh.size());
  std::iota(arrival_order.begin(), arrival_order.end(), size_t{0});
  overload_.MaybeReorder(round, arrival_order);
  std::vector<IngressDelivery> deliveries;
  for (size_t i : arrival_order) {
    deliveries.push_back({Kind::kFresh, i, nullptr, fresh[i]});
  }
  if (overload_.enabled()) {
    // At-least-once duplicates carry the exact key of the upload they copy,
    // which is what lets idempotent admission fold them.
    for (size_t i : arrival_order) {
      const size_t copies = overload_.DuplicateCopies(round, fresh[i].client_id);
      for (size_t c = 0; c < copies; ++c) {
        deliveries.push_back({Kind::kDuplicate, i, nullptr, fresh[i]});
      }
    }
    // Replays re-deliver the client's last *accepted* upload — what a
    // retransmit buffer would still hold — at its original keys.
    for (size_t s = 0; s < replay_clients.size(); ++s) {
      const size_t client = replay_clients[s];
      const LoggedUpload* logged = update_log_.Get(client);
      if (logged == nullptr || logged->round >= round) {
        continue;
      }
      const size_t slots = overload_.ReplaySlots(round, client);
      for (size_t n = 0; n < slots; ++n) {
        IngressDelivery d{Kind::kReplay, s, logged, {}};
        d.arrival.client_id = client;
        d.arrival.round = logged->round;
        d.arrival.attempt = logged->attempt;
        d.arrival.staleness = static_cast<double>(round - logged->round);
        // A stale upload ranks below fresh ones under utility-priority
        // shedding, more so the older it is.
        d.arrival.utility = logged->*replay_utility / (1.0 + d.arrival.staleness);
        deliveries.push_back(d);
      }
    }
  }
  std::vector<AdmissionController::Arrival> arrivals;
  arrivals.reserve(deliveries.size());
  for (const IngressDelivery& d : deliveries) {
    arrivals.push_back(d.arrival);
  }
  const std::vector<AdmissionController::Verdict> verdicts =
      admission_.Admit(round, arrivals, tracker);
  for (size_t n = 0; n < deliveries.size(); ++n) {
    on_verdict(deliveries[n], verdicts[n]);
  }
  if (overload_.enabled()) {
    // The burst opens with the fresh uploads, one delivery each.
    for (size_t n = 0; n < fresh.size(); ++n) {
      if (!verdicts[n].admitted) {
        continue;
      }
      const IngressDelivery& d = deliveries[n];
      LoggedUpload entry = log_entry(d.source);
      entry.round = d.arrival.round;
      entry.attempt = d.arrival.attempt;
      update_log_.Record(d.arrival.client_id, std::move(entry));
    }
  }
}

std::vector<AdmissionController::Verdict> ServerCore::AdmitPartials(
    uint64_t round, std::span<const PartialArrival> partials, AdmissionTracker* tracker) {
  if (partials.empty()) {
    return {};
  }
  std::vector<AdmissionController::Arrival> arrivals;
  arrivals.reserve(partials.size());
  for (const PartialArrival& p : partials) {
    arrivals.push_back(p.arrival);
    arrivals.back().utility *= p.fraction;
  }
  std::vector<AdmissionController::Verdict> verdicts = admission_.Admit(round, arrivals, tracker);
  for (size_t j = 0; j < partials.size(); ++j) {
    if (verdicts[j].admitted) {
      salvage_tracker_.RecordPartialSalvaged(partials[j].steps, partials[j].fraction,
                                             partials[j].acked_mb);
    } else {
      ++salvage_tracker_.partials_rejected;
    }
  }
  return verdicts;
}

std::vector<EdgeFaultDecision> ServerCore::BeginRound(size_t round) {
  injector_.BeginRound(round);
  guard_.BeginRound(round);
  std::vector<EdgeFaultDecision> decisions;
  if (!tree_.enabled()) {
    return decisions;
  }
  edge_injector_.BeginRound(round);
  decisions.resize(tree_.num_edges());
  for (size_t edge = 0; edge < decisions.size(); ++edge) {
    decisions[edge] = edge_injector_.Decide(round, edge);
    if (decisions[edge].crash) {
      ++topo_tracker_.edge_crashes;
    } else if (decisions[edge].blackout) {
      ++topo_tracker_.edge_blackouts;
    }
  }
  tree_.BeginRound(round, decisions);
  return decisions;
}

std::vector<ServerCore::CohortSlot> ServerCore::DecideCohort(
    size_t round, std::span<const size_t> clients, double now,
    const std::function<TechniqueKind(size_t)>& decide) {
  std::vector<CohortSlot> cohort(clients.size());
  for (size_t i = 0; i < cohort.size(); ++i) {
    cohort[i].client_id = clients[i];
    // The policy always gets its Decide call (preserving its internal draw
    // order); the guard may then veto the chosen action (safe mode or
    // quarantine) and substitute kNone. Each fault draw comes from its own
    // (round, client)-keyed stream, so its place in the loop is irrelevant.
    cohort[i].technique = guard_.Filter(decide(i), round);
    cohort[i].fault = injector_.Decide(round, clients[i], now);
  }
  return cohort;
}

bool ServerCore::Orphaned(size_t client_id) const {
  return tree_.enabled() && tree_.EffectiveEdge(client_id) == AggregationTree::kOrphaned;
}

void ServerCore::BookTreeSlot(size_t client_id, bool orphaned) {
  if (orphaned) {
    ++topo_tracker_.orphaned_clients;
  } else if (tree_.enabled() && tree_.Reparented(client_id)) {
    ++topo_tracker_.reparented_clients;
  }
}

double ServerCore::PolicyCredit(double accuracy_delta, TechniqueKind technique) {
  return guard_.SanitizeReward(accuracy_delta * (1.0 - EffectOf(technique).accuracy_impact));
}

bool ServerCore::ForwardPartial(size_t round, size_t edge, double partial_mb) {
  if (!edge_transport_.enabled()) {
    topo_tracker_.RecordPartial(true, 0, 0.0, 0.0);
    return true;
  }
  const TransferResult res =
      edge_transport_.TryDeliver(round, edge, partial_mb, TransferLeg::kUpload, true);
  topo_tracker_.RecordPartial(res.delivered, res.attempts, res.wire_mb, res.retransmitted_mb);
  return res.delivered;
}

}  // namespace floatfl
