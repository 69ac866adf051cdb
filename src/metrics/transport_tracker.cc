#include "src/metrics/transport_tracker.h"

namespace floatfl {

void TransportTracker::Record(size_t attempts, double wire_mb, double retransmitted_mb,
                              double salvaged_mb, double progress_mb, double backoff_s,
                              bool timed_out) {
  ++transfers_;
  attempts_ += attempts;
  if (timed_out) {
    ++timeouts_;
  }
  wire_mb_ += wire_mb;
  retransmitted_mb_ += retransmitted_mb;
  salvaged_mb_ += salvaged_mb;
  progress_mb_ += progress_mb;
  backoff_s_ += backoff_s;
}

}  // namespace floatfl
