// Hierarchical aggregation topology (DESIGN.md §13).
//
// Arranges the client population under a two-tier tree: clients report to a
// configurable number of edge aggregators, each edge folds its cohort with
// its own aggregation rule and forwards one partial aggregate to the root
// over a (possibly lossy) inter-tier link. Edges are a fault domain of their
// own — they can crash, black out, run flaky Markov episodes, or turn
// Byzantine and tamper with the partial they forward — and the recovery
// policy (deterministic failover to sibling edges, per-edge retry cooldowns,
// root-side over-selection of edges) decides how gracefully the system
// degrades when they do.
//
// A default-constructed TopologyConfig (num_edges == 0) is a strict no-op:
// the engines keep their single-server star semantics bit-for-bit, no edge
// fault draws happen, and every pre-topology golden stays byte-identical.
#ifndef SRC_TOPOLOGY_TOPOLOGY_CONFIG_H_
#define SRC_TOPOLOGY_TOPOLOGY_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/agg/aggregator_config.h"
#include "src/failure/fault_config.h"
#include "src/net/adaptive_deadline.h"

namespace floatfl {

struct TopologyConfig {
  // Number of edge aggregators between the clients and the root. 0 keeps the
  // flat star topology (strict no-op); >= 1 routes every client through its
  // home edge `client_id % num_edges`.
  size_t num_edges = 0;

  // --- Recovery policy ----------------------------------------------------
  // Reparent the clients of a down edge to the next live sibling in ring
  // order. Off = those clients are orphaned for the round (they are never
  // tasked and count as DropoutReason::kEdgeOrphaned).
  bool failover = true;
  // Rounds a *crashed* edge sits out before it may aggregate again (its
  // clients fail over or orphan meanwhile). Blackouts are transient and
  // carry no cooldown.
  size_t edge_retry_cooldown_rounds = 2;
  // Root-side over-selection of edges: the tree is provisioned with more
  // edges than the root strictly waits for, and the root closes the round
  // after the first ceil(num_edges / edge_overcommit) partials (ordered by
  // edge elapsed time, edge index breaking ties). Later partials are
  // abandoned and counted as late. 1.0 = wait for every live edge. Only
  // meaningful on engines with a wall clock (sync).
  double edge_overcommit = 1.0;

  // --- Edge faults (keyed (seed, round, edge), DESIGN.md §13) -------------
  // Per edge-round probability the edge process crashes: its cohort fails
  // over (or orphans) and the edge cools down for edge_retry_cooldown_rounds.
  double edge_crash_prob = 0.0;
  // Per edge-round probability of a transient outage: same in-round effect
  // as a crash but no cooldown — the edge is back next round.
  double edge_blackout_prob = 0.0;
  // Markov two-state flaky edges, mirroring the client model: a seeded
  // edge_flaky_fraction of edges is eligible; eligible edges enter/leave the
  // flaky state with the given per-round probabilities and suffer
  // edge_flaky_crash_prob *additional* crash probability while flaky.
  double edge_flaky_fraction = 0.0;
  double edge_flaky_enter_prob = 0.0;
  double edge_flaky_exit_prob = 0.0;
  double edge_flaky_crash_prob = 0.0;

  // --- Byzantine edge ------------------------------------------------------
  // A seeded edge_byzantine_fraction of edges tampers with the partial
  // aggregate it forwards (membership drawn once from the seed, like client
  // colluders). The root's validation catches out-of-band tampering
  // (tampered-partial rejections); in-band tampering is the root
  // aggregation rule's problem.
  ByzantineMode edge_byzantine_mode = ByzantineMode::kNone;
  double edge_byzantine_fraction = 0.0;
  double edge_byzantine_scale = 3.0;

  // --- Inter-tier link (edge -> root, src/net semantics) ------------------
  // The partial-aggregate upload is a chunked lossy transfer keyed
  // (seed', round, edge): per-chunk loss, mid-transfer blackouts, bounded
  // retries. Exhausting the retries loses the whole partial — every update
  // behind it — for the round. Both probabilities zero = loss-free link
  // (no transport draws at all).
  double edge_link_loss_prob = 0.0;
  double edge_link_blackout_prob = 0.0;
  double edge_chunk_mb = 1.0;
  size_t edge_max_retries = 4;

  // --- Per-tier aggregation and deadline ----------------------------------
  // Aggregation rule each edge applies to its cohort before forwarding
  // (default plain FedAvg / pass-through). The root keeps using the engine's
  // top-level AggregatorConfig.
  AggregatorConfig edge_aggregator;
  // Root-tier adaptive deadline over per-edge round times: partials slower
  // than the controller's proposal are dropped as late. Default off. Only
  // meaningful on engines with a wall clock (sync).
  AdaptiveDeadlineConfig edge_adaptive_deadline;

  bool enabled() const { return num_edges > 0; }

  // True when any edge-level fault can fire.
  bool EdgeFaultsEnabled() const {
    return enabled() &&
           (edge_crash_prob > 0.0 || edge_blackout_prob > 0.0 ||
            (edge_flaky_fraction > 0.0 && edge_flaky_crash_prob > 0.0));
  }

  // True when the Byzantine edge adversary can act.
  bool EdgeAttacksEnabled() const {
    return enabled() && edge_byzantine_mode != ByzantineMode::kNone &&
           edge_byzantine_fraction > 0.0 && edge_byzantine_scale > 0.0;
  }

  // True when the edge -> root link must route through the lossy transport.
  bool EdgeLinkLossy() const {
    return enabled() && (edge_link_loss_prob > 0.0 || edge_link_blackout_prob > 0.0);
  }

  // The src/net FaultConfig describing the inter-tier link, for constructing
  // the root's Transport over the edge uplinks.
  FaultConfig LinkFaultConfig() const;

  // Salt decorrelating the inter-tier transport streams from the client-tier
  // transport, which keys the same (round, index) coordinate space.
  static constexpr uint64_t kEdgeLinkSeedSalt = 0x1F83D9ABFB41BD6BULL;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.num_edges, self.failover, self.edge_retry_cooldown_rounds, self.edge_overcommit,
       self.edge_crash_prob, self.edge_blackout_prob, self.edge_flaky_fraction,
       self.edge_flaky_enter_prob, self.edge_flaky_exit_prob, self.edge_flaky_crash_prob,
       self.edge_byzantine_mode, self.edge_byzantine_fraction, self.edge_byzantine_scale,
       self.edge_link_loss_prob, self.edge_link_blackout_prob, self.edge_chunk_mb,
       self.edge_max_retries, self.edge_aggregator, self.edge_adaptive_deadline);
  }
};

// Aborts with a descriptive message when `config` violates a topology
// invariant. Called by every engine constructor (topology enabled or not, so
// a bad config fails fast even before someone raises num_edges).
void ValidateTopologyConfig(const TopologyConfig& config);

}  // namespace floatfl

#endif  // SRC_TOPOLOGY_TOPOLOGY_CONFIG_H_
