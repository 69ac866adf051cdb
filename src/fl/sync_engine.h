// Synchronous FL engine (FedAvg-style deadline-driven rounds).
//
// Each round: the attached Selector picks K clients; each selected client's
// round is simulated against its traces (interference, compute, network,
// availability); the attached TuningPolicy (FLOAT, heuristic, static, or
// none) may apply an acceleration technique; completions are aggregated into
// the surrogate convergence model; outcomes feed back to the policy and the
// selector; the wall clock advances by the round duration.
#ifndef SRC_FL_SYNC_ENGINE_H_
#define SRC_FL_SYNC_ENGINE_H_

#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/fl/surrogate_engine.h"
#include "src/net/adaptive_deadline.h"
#include "src/salvage/speculative_scheduler.h"
#include "src/selection/selector.h"

namespace floatfl {

class SyncEngine : public SurrogateEngine {
 public:
  // `selector` is required; `policy` may be null (vanilla baseline).
  // Neither is owned.
  SyncEngine(const ExperimentConfig& config, Selector* selector, TuningPolicy* policy);

  // Runs all configured rounds and returns the aggregate result.
  ExperimentResult Run();

  // Runs a single round (exposed for tests and the fine-tuning benches).
  void RunRound(size_t round);

  std::vector<Client>& clients() { return clients_; }
  double now() const { return now_s_; }

  // Simulates one client's round at time `now_s` without recording it
  // (used by tests and benches). `fault` layers injected failures over the
  // natural dropout checks; a default FaultDecision injects none. `round`
  // keys the lossy transport's per-transfer random streams (irrelevant when
  // the transport is disabled).
  ClientRoundOutcome SimulateClient(Client& client, size_t round, double now_s,
                                    TechniqueKind technique, const FaultDecision& fault) const;

  size_t RoundsRun() const { return rounds_run_; }
  // The backup planner (DESIGN.md §16).
  const SpeculativeScheduler& speculative_scheduler() const { return scheduler_; }
  // The deadline governing the current round: the static configured value,
  // or the adaptive controller's latest proposal when it is enabled.
  double CurrentRoundDeadline() const { return round_deadline_s_; }

  // Checkpoint/resume of all mutable engine state (DESIGN.md §8). The
  // population, surrogate tables and deadline are rebuilt from config at
  // construction; Save/Load cover everything that advances during Run().
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  // The payload's fields in archive order.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a);

  // The root's patience over the edges whose partials arrived (DESIGN.md
  // §13): drops the ones slower than the adaptive edge deadline, then keeps
  // the first ceil(num_edges / edge_overcommit) by round time. An edge's
  // round time is that of its slowest completed client in `outcomes`.
  void ApplyRootPatience(const std::vector<ClientRoundOutcome>& outcomes,
                         std::vector<size_t>& arrived);

  Selector* selector_;
  AdaptiveDeadlineController deadline_ctrl_;
  // Re-plans the root's patience over per-edge round times (DESIGN.md §13).
  AdaptiveDeadlineController edge_deadline_ctrl_;
  // Speculative re-execution planner (DESIGN.md §16); a no-op by default.
  SpeculativeScheduler scheduler_;
  size_t rounds_run_ = 0;
  // Deadline in force this round; equals config_.deadline_s until the
  // adaptive controller (if enabled) proposes otherwise.
  double round_deadline_s_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_SYNC_ENGINE_H_
