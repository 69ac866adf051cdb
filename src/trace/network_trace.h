// Synthetic per-client network bandwidth process.
//
// Stand-in for the commercial 4G/5G smartphone traces of Narayanan et al.
// [50] used by the paper. What the simulator consumes from those traces is a
// temporally correlated, heavy-tailed, occasionally-zero bandwidth signal per
// client; we reproduce that with a regime-switching (good / degraded /
// outage) mean-reverting log-AR(1) process with distinct 4G and 5G
// parameterizations. See DESIGN.md §3.
#ifndef SRC_TRACE_NETWORK_TRACE_H_
#define SRC_TRACE_NETWORK_TRACE_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

enum class NetworkKind { kFourG, kFiveG };

class NetworkTrace {
 public:
  NetworkTrace(NetworkKind kind, uint64_t seed);

  // Degenerate trace pinned at `mbps` forever: no regime switches, no AR(1)
  // noise. Used by the transport layer's closed-form equivalence tests and
  // by deadline-calibration edge cases (mbps may be 0).
  static NetworkTrace Constant(double mbps);

  // Bandwidth in Mbps at simulated time `time_s` (seconds). The process is
  // evaluated in fixed steps; queries MUST be non-decreasing in time — the
  // engines advance monotonically, and the transport layer integrates over
  // a private copy rather than rewinding the shared trace. A regressing
  // query aborts (FLOATFL_CHECK): silently returning the current value
  // would hide bugs where a straggler's look-ahead perturbs another
  // client's bandwidth path.
  double BandwidthMbpsAt(double time_s);

  // Long-run median of the good regime (used for provisioning estimates).
  double NominalMbps() const { return nominal_mbps_; }

  NetworkKind kind() const { return kind_; }

  // Checkpoint/resume of the mutable regime/AR(1) process.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.rng_);
    IoAs<uint32_t>(a, self.regime_);
    Io(a, self.log_dev_, self.current_mbps_, self.current_time_, self.last_query_s_);
  }

  // Advances the regime and the log-space AR(1) by one step; the bandwidth
  // they imply is derived by BandwidthMbpsAt after its last step.
  void Step();

  NetworkKind kind_;
  Rng rng_;
  double nominal_mbps_;
  double sigma_;           // log-space innovation scale
  double revert_;          // AR(1) mean reversion per step
  double outage_prob_;     // per-step chance of entering an outage
  double degrade_prob_;    // per-step chance of entering a degraded regime
  double recover_prob_;    // per-step chance of leaving a bad regime
  int regime_ = 0;         // 0 good, 1 degraded, 2 outage
  double log_dev_ = 0.0;   // deviation from regime median, log space
  double current_mbps_;
  double current_time_ = 0.0;
  // Most recent query time: enforces the monotonic-query contract.
  double last_query_s_ = 0.0;
  static constexpr double kStepSeconds = 10.0;
};

}  // namespace floatfl

#endif  // SRC_TRACE_NETWORK_TRACE_H_
