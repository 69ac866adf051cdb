// Oort guided participant selection (Lai et al., OSDI '21 [39]).
//
// Utility = statistical utility (data size as the loss proxy) x a system
// penalty for clients whose last round exceeded the developer deadline, with
// epsilon-greedy exploration of unseen clients and blacklisting of clients
// that repeatedly fail. Reproduces Oort's efficiency *and* its bias toward
// fast clients under heavy heterogeneity (Section 4.1).
#ifndef SRC_SELECTION_OORT_SELECTOR_H_
#define SRC_SELECTION_OORT_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/selection/selector.h"

namespace floatfl {

struct OortParams {
  double exploration = 0.1;          // fraction of K reserved for unexplored clients
  double speed_penalty_alpha = 2.0;  // exponent of the (T/t)^alpha straggler penalty
  size_t blacklist_failures = 5;     // consecutive failures before blacklisting
};

class OortSelector final : public Selector {
 public:
  using Params = OortParams;

  OortSelector(uint64_t seed, size_t num_clients, Params params = Params());

  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<Client>& clients) override;
  void OnOutcome(size_t client_id, bool completed, double duration_s,
                 double deadline_s) override;
  void OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) override;
  std::string Name() const override { return "oort"; }

  void SaveState(CheckpointWriter& w) const override { Fields(*this, w); }
  void LoadState(CheckpointReader& r) override { Fields(*this, r); }

  double UtilityOf(size_t client_id) const { return utility_[client_id]; }
  double IngestUtility(size_t client_id) const override { return utility_[client_id]; }
  bool IsBlacklisted(size_t client_id) const { return failures_[client_id] >= params_.blacklist_failures; }
  // Oort's pacer: the developer-preferred round duration as a fraction of
  // the deadline, relaxed when too few clients complete and tightened when
  // completion is easy.
  double PacerFraction() const { return pacer_fraction_; }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    constexpr const char* kMismatch = "checkpoint Oort population mismatch";
    Io(a, self.rng_);
    IoFixed(a, self.utility_, kMismatch);
    IoFixed(a, self.explored_, kMismatch);
    IoFixed(a, self.failures_, kMismatch);
    IoFixed(a, self.net_factor_, kMismatch);
    Io(a, self.pacer_fraction_, self.completion_ewma_);
  }

  Rng rng_;
  Params params_;
  std::vector<double> utility_;
  std::vector<bool> explored_;
  std::vector<size_t> failures_;
  // EWMA of effective/nominal link throughput from OnTransfer; scales
  // utility so Oort ranks by the bandwidth clients actually deliver under
  // lossy transport, not the provisioned figure. 1.0 until transfer feedback
  // arrives; stays exactly 1.0 when the transport is disabled.
  std::vector<double> net_factor_;
  double pacer_fraction_ = 0.5;
  double completion_ewma_ = 0.8;
};

}  // namespace floatfl

#endif  // SRC_SELECTION_OORT_SELECTOR_H_
