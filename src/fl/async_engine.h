// Asynchronous FL engine modeling FedBuff (Nguyen et al. [51]).
//
// Up to `async_concurrency` clients train concurrently; completed updates
// enter a buffer and every `async_buffer` updates are aggregated into a new
// model version. Slow clients keep training on stale versions; staleness
// discounts their contribution, and updates staler than the configured
// bound (AdmissionConfig::async_max_staleness, DESIGN.md §15) are
// discarded. Over-selection makes FedBuff fast in wall-clock but heavy in
// aggregate client resource spend — the trade-off of Figure 2b.
#ifndef SRC_FL_ASYNC_ENGINE_H_
#define SRC_FL_ASYNC_ENGINE_H_

#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/surrogate_engine.h"

namespace floatfl {

class AsyncEngine : public SurrogateEngine {
 public:
  // `policy` may be null. Not owned.
  AsyncEngine(const ExperimentConfig& config, TuningPolicy* policy);

  // Runs until `config.rounds` aggregations have happened.
  ExperimentResult Run();

  // Runs until `target_version` aggregations have happened (no-op when
  // already past). Exposed for checkpoint/resume tests.
  void RunUntil(size_t target_version);

  // Processes one scheduler step: launch available clients, then retire the
  // earliest finisher (or just advance time when nobody is in flight).
  void StepOnce();

  size_t Version() const { return version_; }

  // Checkpoint/resume of all mutable engine state (DESIGN.md §8).
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  struct InFlight {
    size_t client_id;
    double finish_time_s;
    size_t start_version;
    TechniqueKind technique;
    ClientRoundOutcome outcome;
    ClientObservation observation;

    template <typename Self, typename Archive>
    static void Fields(Self& self, Archive& a) {
      auto& o = self.observation;
      Io(a, self.client_id, self.finish_time_s, self.start_version, self.technique, self.outcome,
         o.cpu_avail, o.mem_avail, o.net_avail, o.deadline_diff);
    }
  };

  // The payload's fields in archive order.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a);

  void LaunchClients(const GlobalObservation& global);

  // Byzantine completers retired since the last aggregation (folded into the
  // tracker record at each buffer flush).
  size_t pending_byzantine_ = 0;
  Rng rng_;
  std::vector<InFlight> in_flight_;
  std::vector<bool> busy_;
  std::vector<ClientContribution> buffer_;
  size_t version_ = 0;
  double last_accuracy_delta_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_FL_ASYNC_ENGINE_H_
