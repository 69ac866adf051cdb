// REFL's availability-window-predicting selection (Abdelmoniem et al.,
// EuroSys '23 [2]).
//
// REFL models each client's future availability as a fixed linear window
// predicted from past observations and admits only clients whose predicted
// window fits the client's estimated round duration, prioritizing the
// least-recently-participated among them (staleness-aware to spread
// participation). The paper's critique — that fixed-window prediction fails
// under dynamic resources and excludes ~50 % of (slower) clients — emerges
// from exactly this mechanism.
#ifndef SRC_SELECTION_REFL_SELECTOR_H_
#define SRC_SELECTION_REFL_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/selection/selector.h"

namespace floatfl {

class ReflSelector final : public Selector {
 public:
  ReflSelector(uint64_t seed, size_t num_clients);

  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<Client>& clients) override;
  void OnOutcome(size_t client_id, bool completed, double duration_s,
                 double deadline_s) override;
  void OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) override;
  std::string Name() const override { return "refl"; }

  void SaveState(CheckpointWriter& w) const override { Fields(*this, w); }
  void LoadState(CheckpointReader& r) override { Fields(*this, r); }

  double PredictedWindow(size_t client_id) const { return predicted_window_s_[client_id]; }
  double EstimatedDuration(size_t client_id) const { return estimated_duration_s_[client_id]; }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    constexpr const char* kMismatch = "checkpoint REFL population mismatch";
    Io(a, self.rng_);
    IoFixed(a, self.predicted_window_s_, kMismatch);
    IoFixed(a, self.estimated_duration_s_, kMismatch);
    IoFixed(a, self.last_participated_, kMismatch);
    IoFixed(a, self.seen_, kMismatch);
    IoFixed(a, self.net_factor_, kMismatch);
    Io(a, self.last_deadline_s_);
  }

  Rng rng_;
  std::vector<double> predicted_window_s_;    // EWMA of observed on-periods
  std::vector<double> estimated_duration_s_;  // EWMA of observed round durations
  std::vector<size_t> last_participated_;     // round of last selection
  std::vector<bool> seen_;
  // EWMA of effective/nominal link throughput from OnTransfer (1.0 without
  // transfer feedback): deflates the deadline-fit check so clients whose
  // links deliver less than provisioned are judged on effective speed.
  std::vector<double> net_factor_;
  double last_deadline_s_ = 0.0;              // learned from outcome feedback
};

}  // namespace floatfl

#endif  // SRC_SELECTION_REFL_SELECTOR_H_
