// Transport-layer accounting (DESIGN.md §10): how many transfers the lossy
// transport attempted, how many attempts they took, how many wire bytes were
// retransmissions, how many acknowledged bytes resumable retries salvaged,
// and how much time was spent backing off between attempts.
#ifndef SRC_METRICS_TRANSPORT_TRACKER_H_
#define SRC_METRICS_TRANSPORT_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct TransportTracker {
  size_t transfers = 0;
  size_t attempts = 0;
  size_t timeouts = 0;
  // Total bytes put on the wire (payload + retransmissions): the run's
  // bytes-moved total.
  double wire_mb = 0.0;
  double retransmitted_mb = 0.0;
  // Unique acked bytes resumable retries carried forward (never re-counted
  // per attempt).
  double salvaged_mb = 0.0;
  // Unique payload bytes acknowledged overall: on a timed-out transfer, the
  // salvageable partial progress the graceful-degradation layer can turn
  // into a partial update (DESIGN.md §16).
  double progress_mb = 0.0;
  double backoff_s = 0.0;

  // Records one finished transfer (download or upload leg). Call from
  // sequential bookkeeping code only (not thread-safe; the engines record
  // after the per-round fan-out has joined).
  void Record(size_t transfer_attempts, double transfer_wire_mb, double transfer_retransmitted_mb,
              double transfer_salvaged_mb, double transfer_progress_mb, double transfer_backoff_s,
              bool timed_out) {
    ++transfers;
    attempts += transfer_attempts;
    if (timed_out) {
      ++timeouts;
    }
    wire_mb += transfer_wire_mb;
    retransmitted_mb += transfer_retransmitted_mb;
    salvaged_mb += transfer_salvaged_mb;
    progress_mb += transfer_progress_mb;
    backoff_s += transfer_backoff_s;
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.transfers, self.attempts, self.timeouts, self.wire_mb, self.retransmitted_mb,
       self.salvaged_mb, self.progress_mb, self.backoff_s);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_TRANSPORT_TRACKER_H_
