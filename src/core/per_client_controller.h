// Per-client lookup-table variant of FLOAT (RQ2).
//
// Privacy-conscious clients need not share system-usage data with the
// aggregator: each client trains its own Q-table locally (sub-millisecond,
// <0.2 MB — Figure 8), at the cost of no cross-client generalization. This
// controller manages one RlhfAgent per client behind the same TuningPolicy
// interface, so the engines cannot tell the difference; the default
// FloatController is the centralized collective-table variant.
#ifndef SRC_CORE_PER_CLIENT_CONTROLLER_H_
#define SRC_CORE_PER_CLIENT_CONTROLLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/rlhf_agent.h"
#include "src/fl/tuning_policy.h"

namespace floatfl {

class PerClientController final : public TuningPolicy {
 public:
  PerClientController(size_t num_clients, const StateEncoderConfig& encoder_config,
                      const RlhfConfig& rlhf_config);

  static std::unique_ptr<PerClientController> MakeDefault(size_t num_clients, uint64_t seed,
                                                          size_t total_rounds);

  TechniqueKind Decide(size_t client_id, const ClientObservation& client,
                       const GlobalObservation& global) override;
  void Report(size_t client_id, const ClientObservation& client, const GlobalObservation& global,
              TechniqueKind technique, bool participated, double accuracy_improvement) override;
  std::string Name() const override { return "float-per-client"; }

  void SaveState(CheckpointWriter& w) const override { Fields(*this, w); }
  void LoadState(CheckpointReader& r) override { Fields(*this, r); }

  RlhfAgent& agent(size_t client_id);
  size_t NumClients() const { return agents_.size(); }

  // Aggregate memory across all local tables (scales linearly in clients).
  size_t TotalMemoryBytes() const;

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    IoFixed(a, self.agents_, "checkpoint policy shape mismatch: per-client agent count differs");
    Io(a, self.rounds_);
  }

  std::vector<std::unique_ptr<RlhfAgent>> agents_;
  std::vector<size_t> rounds_;  // per-client local round counters
};

}  // namespace floatfl

#endif  // SRC_CORE_PER_CLIENT_CONTROLLER_H_
