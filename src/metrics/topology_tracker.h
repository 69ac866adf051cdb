// Hierarchical-topology accounting (DESIGN.md §13): how often edges went
// down and why, how many clients failed over or were orphaned, what happened
// to the forwarded partial aggregates (lost on the inter-tier link, tampered
// by Byzantine edges, rejected by the root's validation, abandoned as late),
// and the tier-1 (edge -> root) wire-byte totals.
#ifndef SRC_METRICS_TOPOLOGY_TRACKER_H_
#define SRC_METRICS_TOPOLOGY_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class TopologyTracker {
 public:
  // All recording happens from the engines' sequential phases (not
  // thread-safe, like every other tracker).
  void RecordEdgeCrash() { ++edge_crashes_; }
  void RecordEdgeBlackout() { ++edge_blackouts_; }
  void RecordReparented(size_t clients) { reparented_clients_ += clients; }
  void RecordOrphaned(size_t clients) { orphaned_clients_ += clients; }
  // One partial aggregate forwarded up the tree (after edge-tier
  // aggregation), with its inter-tier transfer accounting. `delivered` false
  // means the lossy link exhausted its retries and the partial — every
  // client update behind it — was lost for the round.
  void RecordPartial(bool delivered, size_t attempts, double wire_mb, double retransmitted_mb) {
    ++partials_forwarded_;
    if (!delivered) {
      ++partials_lost_;
    }
    edge_transfer_attempts_ += attempts;
    tier1_wire_mb_ += wire_mb;
    tier1_retransmitted_mb_ += retransmitted_mb;
  }
  void RecordTampered() { ++tampered_partials_; }
  // Forwarded contributions the root's validation rejected as tampered.
  void RecordTamperedRejections(size_t rejections) { tampered_rejections_ += rejections; }
  // Partials abandoned by the root's deadline / over-selection close.
  void RecordLatePartial() { ++late_partials_; }
  // Contributions the edge-tier aggregation rule excluded before forwarding.
  void RecordEdgeAggExclusions(size_t exclusions) { edge_agg_exclusions_ += exclusions; }

  size_t EdgeCrashes() const { return edge_crashes_; }
  size_t EdgeBlackouts() const { return edge_blackouts_; }
  size_t ReparentedClients() const { return reparented_clients_; }
  size_t OrphanedClients() const { return orphaned_clients_; }
  size_t PartialsForwarded() const { return partials_forwarded_; }
  size_t PartialsLost() const { return partials_lost_; }
  size_t TamperedPartials() const { return tampered_partials_; }
  size_t TamperedRejections() const { return tampered_rejections_; }
  size_t LatePartials() const { return late_partials_; }
  size_t EdgeAggExclusions() const { return edge_agg_exclusions_; }
  size_t EdgeTransferAttempts() const { return edge_transfer_attempts_; }
  double Tier1WireMb() const { return tier1_wire_mb_; }
  double Tier1RetransmittedMb() const { return tier1_retransmitted_mb_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.edge_crashes_, self.edge_blackouts_, self.reparented_clients_,
       self.orphaned_clients_, self.partials_forwarded_, self.partials_lost_,
       self.tampered_partials_, self.tampered_rejections_, self.late_partials_,
       self.edge_agg_exclusions_, self.edge_transfer_attempts_, self.tier1_wire_mb_,
       self.tier1_retransmitted_mb_);
  }

  size_t edge_crashes_ = 0;
  size_t edge_blackouts_ = 0;
  size_t reparented_clients_ = 0;
  size_t orphaned_clients_ = 0;
  size_t partials_forwarded_ = 0;
  size_t partials_lost_ = 0;
  size_t tampered_partials_ = 0;
  size_t tampered_rejections_ = 0;
  size_t late_partials_ = 0;
  size_t edge_agg_exclusions_ = 0;
  size_t edge_transfer_attempts_ = 0;
  double tier1_wire_mb_ = 0.0;
  double tier1_retransmitted_mb_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_TOPOLOGY_TRACKER_H_
