// Simulated FL client: a device (compute/network/availability/interference
// traces) plus its local data shard and participation history.
#ifndef SRC_FL_CLIENT_H_
#define SRC_FL_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/failure/checkpoint_io.h"
#include "src/trace/availability_trace.h"
#include "src/trace/compute_trace.h"
#include "src/trace/interference.h"
#include "src/trace/network_trace.h"

namespace floatfl {

class Client {
 public:
  Client(size_t id, ClientShard shard, ComputeTrace compute, NetworkTrace network,
         AvailabilityTrace availability, InterferenceModel interference);

  size_t id() const { return id_; }
  const ClientShard& shard() const { return shard_; }
  ComputeTrace& compute() { return compute_; }
  const ComputeTrace& compute() const { return compute_; }
  NetworkTrace& network() { return network_; }
  const NetworkTrace& network() const { return network_; }
  AvailabilityTrace& availability() { return availability_; }
  InterferenceModel& interference() { return interference_; }

  // Participation history (used by selectors and the human-feedback state).
  size_t times_selected = 0;
  size_t times_completed = 0;
  // Duration of the client's last attempted round, seconds (0 if never ran).
  double last_round_duration_s = 0.0;
  // Smoothed deadline overshoot as a fraction of the deadline — the paper's
  // "deadline difference" human feedback: how much this client *typically*
  // deviates from the prescribed round deadline. An EWMA so one rescued
  // round does not erase a chronic straggler's profile.
  double last_deadline_diff = 0.0;

  // Smoothing weights for every per-client profile EWMA: the deadline
  // difference here, and the AdaptiveDeadlineController's round-time and
  // transfer-throughput estimates (src/net/adaptive_deadline.h), which must
  // forget at the same rate so the controller's view of a client ages in
  // step with the human-feedback signal. 0.7/0.3 keeps ~70 % of the history
  // per observation: one rescued round does not erase a chronic straggler's
  // profile, but ~5 observations turn the estimate over.
  // Written as literals (not 1.0 - retain): 0.3 and 1.0 - 0.7 differ in the
  // last ulp, and the goldens pin the literal arithmetic.
  static constexpr double kProfileEwmaRetain = 0.7;
  static constexpr double kProfileEwmaObserve = 0.3;

  void UpdateDeadlineDiff(double observed) {
    last_deadline_diff = kProfileEwmaRetain * last_deadline_diff + kProfileEwmaObserve * observed;
  }
  // Most recent observed on-period length, for REFL-style window prediction.
  double observed_window_s = 0.0;
  // First round this client may be selected again after a crash or a
  // quarantined update (retry-with-cooldown, DESIGN.md §8). 0 = no cooldown.
  // Selectors deprioritize clients with cooldown_until_round > round.
  size_t cooldown_until_round = 0;

  // Checkpoint/resume: participation history plus the four trace processes.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.times_selected, self.times_completed, self.last_round_duration_s,
       self.last_deadline_diff, self.observed_window_s, self.cooldown_until_round, self.compute_,
       self.network_, self.availability_, self.interference_);
  }

  size_t id_;
  ClientShard shard_;
  ComputeTrace compute_;
  NetworkTrace network_;
  AvailabilityTrace availability_;
  InterferenceModel interference_;
};

// Builds a full client population for an experiment: Dirichlet shards plus
// per-client device traces (70 % 4G / 30 % 5G as in mixed mobile fleets).
std::vector<Client> BuildPopulation(const DatasetSpec& spec, size_t num_clients, double alpha,
                                    InterferenceScenario interference, uint64_t seed);

}  // namespace floatfl

#endif  // SRC_FL_CLIENT_H_
