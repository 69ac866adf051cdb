// The two-tier client -> edge -> root aggregation tree and its failover
// policy (DESIGN.md §13).
//
// Membership is static and derived from the config alone: client c reports
// to home edge c % num_edges. What changes round to round is which edges are
// up. BeginRound folds the round's EdgeFaultDecisions and the per-edge crash
// cooldowns into an up/down mask and — when failover is on — assigns every
// down edge a deterministic foster: the first live sibling scanning ring
// order from the next index. All of it is pure arithmetic over the decisions
// (no RNG, no floating point), so the assignment is bit-identical for every
// thread count and across checkpoint boundaries.
#ifndef SRC_TOPOLOGY_AGGREGATION_TREE_H_
#define SRC_TOPOLOGY_AGGREGATION_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/failure/edge_fault_injector.h"
#include "src/topology/topology_config.h"

namespace floatfl {

class AggregationTree {
 public:
  // No edge in the chain can take the client this round.
  static constexpr size_t kOrphaned = static_cast<size_t>(-1);

  // Disabled tree (star topology): every query answers as if the root were
  // the only aggregator.
  AggregationTree() = default;
  AggregationTree(const TopologyConfig& config, size_t num_clients);

  bool enabled() const { return config_.enabled(); }
  size_t num_edges() const { return config_.num_edges; }

  size_t HomeEdge(size_t client_id) const {
    return enabled() ? client_id % config_.num_edges : 0;
  }

  // Applies one round's edge fault decisions: refreshes the up/down mask
  // (crashed, blacked out, or cooling edges are down), starts crash
  // cooldowns, and recomputes the foster assignment. Call once per round
  // from sequential code, before any routing query.
  void BeginRound(size_t round, const std::vector<EdgeFaultDecision>& decisions);

  bool EdgeUp(size_t edge) const { return edge < up_.size() && up_[edge] != 0; }
  // True while `edge` sits out a crash cooldown at the given round.
  bool EdgeCooling(size_t edge, size_t round) const {
    return edge < cooldown_until_.size() && round < cooldown_until_[edge];
  }
  // The live edge standing in for a down `edge` this round (the edge itself
  // when up); kOrphaned when failover is off or every edge is down.
  size_t StandinFor(size_t edge) const;

  // The edge that aggregates `client_id` this round after failover:
  // its home edge when up, the home edge's foster otherwise, kOrphaned when
  // no edge can take it.
  size_t EffectiveEdge(size_t client_id) const;
  // True when the client runs under a foster edge this round.
  bool Reparented(size_t client_id) const {
    const size_t effective = EffectiveEdge(client_id);
    return effective != kOrphaned && effective != HomeEdge(client_id);
  }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    constexpr const char* kMismatch = "checkpoint aggregation tree edge count mismatch";
    IoFixed(a, self.cooldown_until_, kMismatch);
    IoFixed(a, self.up_, kMismatch);
    IoFixed(a, self.foster_, kMismatch);
  }

  TopologyConfig config_;
  size_t num_clients_ = 0;
  // Per-edge first round at which a crashed edge may rejoin.
  std::vector<size_t> cooldown_until_;
  // This round's mask and foster assignment (recomputed by BeginRound;
  // serialized so a checkpoint captures the failover state bit-exactly).
  std::vector<uint8_t> up_;
  std::vector<size_t> foster_;
};

}  // namespace floatfl

#endif  // SRC_TOPOLOGY_AGGREGATION_TREE_H_
