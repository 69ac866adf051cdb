// Server-side adaptive synchronous deadline (DESIGN.md §10).
//
// AutoDeadlineSeconds calibrates one static deadline from nominal
// (provisioning-time) link speeds; under lossy transport the *effective*
// round time drifts away from that estimate — retransmissions slow clients
// down, quiet links speed them up. The controller maintains per-client EWMA
// estimates of observed round time and transfer throughput (the EWMA
// constants are shared with Client::UpdateDeadlineDiff so every per-client
// profile signal ages at the same rate), and each round proposes
// headroom x median(round-time estimates), clamped to
// [min_factor, max_factor] x the base deadline so one pathological round
// cannot collapse or explode the schedule. Default off: the engines then
// never consult it and behave byte-identically to the static
// AutoDeadlineSeconds calibration.
#ifndef SRC_NET_ADAPTIVE_DEADLINE_H_
#define SRC_NET_ADAPTIVE_DEADLINE_H_

#include <cstddef>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct AdaptiveDeadlineConfig {
  bool enabled = false;
  // Clamp bounds as fractions of the base (auto-calibrated or explicit)
  // deadline: the controller may tighten to min_factor x base and relax to
  // max_factor x base.
  double min_factor = 0.5;
  double max_factor = 3.0;
  // Deadline = headroom x the population-median round-time estimate; 2.5
  // matches AutoDeadlineSeconds' static headroom.
  double headroom = 2.5;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.enabled, self.min_factor, self.max_factor, self.headroom);
  }
};

class AdaptiveDeadlineController {
 public:
  AdaptiveDeadlineController() = default;
  AdaptiveDeadlineController(const AdaptiveDeadlineConfig& config, size_t num_clients,
                             double base_deadline_s);

  bool enabled() const { return config_.enabled; }

  // Folds one observed client round into the estimates. `round_time_s` is
  // the client's wall time this round; `throughput_mbps` its effective
  // transfer throughput (wire bytes / wire time), <= 0 when no transfer
  // happened. Call from sequential bookkeeping code.
  void Observe(size_t client_id, double round_time_s, double throughput_mbps);

  // The deadline for the next round: headroom x median round-time estimate
  // over observed clients, clamped to the configured bounds. Base deadline
  // until any client has been observed.
  double CurrentDeadline() const;

  // Smoothed effective transfer throughput of `client_id`, Mbps (0 until
  // observed).
  double ThroughputEstimate(size_t client_id) const;

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    constexpr const char* kMismatch = "checkpoint deadline controller population mismatch";
    Io(a, self.base_deadline_s_);
    IoFixed(a, self.round_time_ewma_, kMismatch);
    IoFixed(a, self.throughput_ewma_, kMismatch);
    IoFixed(a, self.seen_, kMismatch);
  }

  AdaptiveDeadlineConfig config_;
  double base_deadline_s_ = 0.0;
  std::vector<double> round_time_ewma_;
  std::vector<double> throughput_ewma_;
  std::vector<uint8_t> seen_;
};

}  // namespace floatfl

#endif  // SRC_NET_ADAPTIVE_DEADLINE_H_
