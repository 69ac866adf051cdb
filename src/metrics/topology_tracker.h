// Hierarchical-topology accounting (DESIGN.md §13): how often edges went
// down and why, how many clients failed over or were orphaned, what happened
// to the forwarded partial aggregates (lost on the inter-tier link, tampered
// by Byzantine edges, rejected by the root's validation, abandoned as late),
// and the tier-1 (edge -> root) wire-byte totals. All recording happens from
// the engines' sequential phases (not thread-safe, like every other tracker).
#ifndef SRC_METRICS_TOPOLOGY_TRACKER_H_
#define SRC_METRICS_TOPOLOGY_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct TopologyTracker {
  size_t edge_crashes = 0;
  size_t edge_blackouts = 0;
  size_t reparented_clients = 0;
  size_t orphaned_clients = 0;
  size_t partials_forwarded = 0;
  size_t partials_lost = 0;
  size_t tampered_partials = 0;
  // Forwarded contributions the root's validation rejected as tampered.
  size_t tampered_rejections = 0;
  // Partials abandoned by the root's deadline / over-selection close.
  size_t late_partials = 0;
  // Contributions the edge-tier aggregation rule excluded before forwarding.
  size_t edge_agg_exclusions = 0;
  size_t edge_transfer_attempts = 0;
  double tier1_wire_mb = 0.0;
  double tier1_retransmitted_mb = 0.0;

  // One partial aggregate forwarded up the tree (after edge-tier
  // aggregation), with its inter-tier transfer accounting. `delivered` false
  // means the lossy link exhausted its retries and the partial — every
  // client update behind it — was lost for the round.
  void RecordPartial(bool delivered, size_t attempts, double wire_mb, double retransmitted_mb) {
    ++partials_forwarded;
    if (!delivered) {
      ++partials_lost;
    }
    edge_transfer_attempts += attempts;
    tier1_wire_mb += wire_mb;
    tier1_retransmitted_mb += retransmitted_mb;
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.edge_crashes, self.edge_blackouts, self.reparented_clients, self.orphaned_clients,
       self.partials_forwarded, self.partials_lost, self.tampered_partials,
       self.tampered_rejections, self.late_partials, self.edge_agg_exclusions,
       self.edge_transfer_attempts, self.tier1_wire_mb, self.tier1_retransmitted_mb);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_TOPOLOGY_TRACKER_H_
