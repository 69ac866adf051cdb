#include "src/topology/aggregation_tree.h"

#include "src/common/check.h"

namespace floatfl {

AggregationTree::AggregationTree(const TopologyConfig& config, size_t num_clients)
    : config_(config), num_clients_(num_clients) {
  if (!config_.enabled()) {
    return;
  }
  cooldown_until_.assign(config_.num_edges, 0);
  up_.assign(config_.num_edges, 1);
  foster_.assign(config_.num_edges, kOrphaned);
}

void AggregationTree::BeginRound(size_t round, const std::vector<EdgeFaultDecision>& decisions) {
  if (!config_.enabled()) {
    return;
  }
  FLOATFL_CHECK_MSG(decisions.size() == config_.num_edges,
                    "edge decision count / topology size mismatch");
  const size_t num_edges = config_.num_edges;
  for (size_t edge = 0; edge < num_edges; ++edge) {
    const bool cooling = round < cooldown_until_[edge];
    const EdgeFaultDecision& d = decisions[edge];
    // A cooling edge is down regardless of this round's draws; a fresh crash
    // (re)starts the cooldown clock.
    if (d.crash) {
      cooldown_until_[edge] = round + 1 + config_.edge_retry_cooldown_rounds;
    }
    up_[edge] = (cooling || d.crash || d.blackout) ? 0 : 1;
  }
  for (size_t edge = 0; edge < num_edges; ++edge) {
    foster_[edge] = kOrphaned;
    if (up_[edge] || !config_.failover) {
      continue;
    }
    // First live sibling scanning ring order from the next index: every
    // server computes the same assignment without coordination.
    for (size_t step = 1; step < num_edges; ++step) {
      const size_t candidate = (edge + step) % num_edges;
      if (up_[candidate]) {
        foster_[edge] = candidate;
        break;
      }
    }
  }
}

size_t AggregationTree::StandinFor(size_t edge) const {
  if (!config_.enabled() || edge >= up_.size()) {
    return kOrphaned;
  }
  return up_[edge] ? edge : foster_[edge];
}

size_t AggregationTree::EffectiveEdge(size_t client_id) const {
  if (!config_.enabled()) {
    return 0;
  }
  return StandinFor(HomeEdge(client_id));
}

}  // namespace floatfl
