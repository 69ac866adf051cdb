// Transport-layer accounting (DESIGN.md §10): how many transfers the lossy
// transport attempted, how many attempts they took, how many wire bytes were
// retransmissions, how many acknowledged bytes resumable retries salvaged,
// and how much time was spent backing off between attempts.
#ifndef SRC_METRICS_TRANSPORT_TRACKER_H_
#define SRC_METRICS_TRANSPORT_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class TransportTracker {
 public:
  // Records one finished transfer (download or upload leg). `wire_mb` is the
  // total bytes the transfer put on the wire (payload + retransmissions) —
  // the run's bytes-moved total.
  // `salvaged_mb` is the unique acked bytes resumable retries carried
  // forward (never re-counted per attempt); `progress_mb` is the unique
  // payload bytes acknowledged overall — on a timed-out transfer, the
  // salvageable partial progress the graceful-degradation layer can turn
  // into a partial update (DESIGN.md §16). Call from sequential bookkeeping
  // code only (not thread-safe; the engines record after the per-round
  // fan-out has joined).
  void Record(size_t attempts, double wire_mb, double retransmitted_mb, double salvaged_mb,
              double progress_mb, double backoff_s, bool timed_out);

  size_t TotalTransfers() const { return transfers_; }
  size_t TotalAttempts() const { return attempts_; }
  size_t TotalTimeouts() const { return timeouts_; }
  double TotalWireMb() const { return wire_mb_; }
  double TotalRetransmittedMb() const { return retransmitted_mb_; }
  double TotalSalvagedMb() const { return salvaged_mb_; }
  double TotalProgressMb() const { return progress_mb_; }
  double TotalBackoffS() const { return backoff_s_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.transfers_, self.attempts_, self.timeouts_, self.wire_mb_, self.retransmitted_mb_,
       self.salvaged_mb_, self.progress_mb_, self.backoff_s_);
  }

  size_t transfers_ = 0;
  size_t attempts_ = 0;
  size_t timeouts_ = 0;
  double wire_mb_ = 0.0;
  double retransmitted_mb_ = 0.0;
  double salvaged_mb_ = 0.0;
  double progress_mb_ = 0.0;
  double backoff_s_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_TRANSPORT_TRACKER_H_
