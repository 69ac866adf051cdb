// FLOAT's multi-objective Q-learning agent with human feedback (Section 5).
//
// Implements Algorithm 1 with the paper's RQ6 refinements:
//  * multi-objective reward R = w_p * P + w_a * Acc (Equation 2), where each
//    objective enters as a moving average rather than a raw Bellman
//    accumulation, so frequently explored actions are not inflated;
//  * a dynamic learning rate that starts low and grows with training
//    progress, capped at 1.0 (accuracy gains are front-loaded across
//    rounds);
//  * a near-zero discount: the successor state depends on random client
//    resource fluctuations, not on the chosen action, so the gamma-weighted
//    successor term is shrunk toward zero;
//  * balanced exploration that prefers the least-visited action instead of a
//    uniform draw;
//  * a feedback cache (RQ7) that substitutes cached accuracy feedback from
//    similar clients when a dropped-out client cannot report its own.
#ifndef SRC_CORE_RLHF_AGENT_H_
#define SRC_CORE_RLHF_AGENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/q_table.h"
#include "src/core/state_encoder.h"
#include "src/failure/checkpoint_io.h"
#include "src/opt/technique.h"

namespace floatfl {

struct RlhfConfig {
  // Equation-2 objective weights.
  double w_participation = 0.6;
  double w_accuracy = 0.4;
  // Probability of exploring instead of exploiting, decayed linearly with
  // training progress down to epsilon_min.
  double epsilon = 0.25;
  double epsilon_min = 0.02;
  // Successor-state discount (mu in Algorithm 1); kept near zero per RQ1.
  double discount = 0.05;
  // Dynamic learning-rate schedule: lr(r) = clamp(r / total_rounds,
  // min_learning_rate, 1.0).
  size_t total_rounds = 300;
  double min_learning_rate = 0.25;
  // Window of the per-objective moving averages (RQ6). Implemented as an
  // exponential moving average with beta = 1 / window.
  size_t moving_average_window = 10;
  bool balanced_exploration = true;
  // RQ7 feedback cache; disabled in the FLOAT-RL ablation.
  bool cache_dropout_feedback = true;
  uint64_t seed = 1;
};

class RlhfAgent {
 public:
  // The action space defaults to ActionTechniques() (none + the paper's 8
  // accelerations); `num_actions` only varies in the Figure-8 overhead
  // sweeps.
  RlhfAgent(const StateEncoderConfig& encoder_config, const RlhfConfig& config,
            size_t num_actions = 9);

  size_t NumStates() const { return encoder_.NumStates(); }
  size_t NumActions() const { return table_.num_actions(); }

  // Epsilon-greedy action choice for an encoded state.
  size_t ChooseActionIndex(size_t state, size_t round);

  // Full pipeline: encode the observation, pick an action, map it to a
  // technique. Only valid when the action space is ActionTechniques().
  TechniqueKind ChooseTechnique(const ClientObservation& client, const GlobalObservation& global,
                                size_t round);

  // Records the outcome of (state, action): participation success and the
  // accuracy improvement of the aggregation the update fed (normalized
  // internally against the best improvement seen so far). For dropouts,
  // accuracy feedback is estimated from the cache when enabled.
  void FeedbackIndexed(size_t state, size_t action, bool participated,
                       double accuracy_improvement, size_t round);
  void Feedback(const ClientObservation& client, const GlobalObservation& global,
                TechniqueKind technique, bool participated, double accuracy_improvement,
                size_t round);

  double LearningRateFor(size_t round) const;

  // Reward diagnostics (Figure 9's convergence curves).
  const std::vector<double>& RewardHistory() const { return reward_history_; }
  double AverageRewardOver(size_t last_n) const;
  // Fraction of the last `last_n` feedbacks with strictly positive reward —
  // the paper's "absolute reward" view of fine-tuning progress.
  double PositiveRewardFraction(size_t last_n) const;

  // Boundary-validation counters: non-finite (or absurd-magnitude) rewards
  // and non-finite observation fields are rejected/neutralized at the agent
  // boundary instead of poisoning the Q-table (a single NaN
  // accuracy_improvement would otherwise corrupt the moving averages, the
  // reward normalizer and every Q-cell it touches, permanently).
  size_t RejectedRewards() const { return rejected_rewards_; }
  size_t RejectedObservations() const { return rejected_observations_; }

  // Transfers a pre-trained agent's learned state (Figure 9 / RQ3).
  void InitializeFrom(const RlhfAgent& pretrained);

  // Approximate memory footprint of the learned state (Figure 8).
  size_t MemoryBytes() const;

  // Per-action aggregate of the feedback received since construction or the
  // last InitializeFrom (Figure 10's fine-tuned Q-table views): success
  // rate, mean accuracy score and mean Q of the action's visited cells.
  struct ActionSummary {
    TechniqueKind technique = TechniqueKind::kNone;
    size_t visits = 0;          // feedbacks for this action in this run
    double avg_participation = 0.0;
    double avg_accuracy = 0.0;
    double avg_q = 0.0;
  };
  std::vector<ActionSummary> SummarizePerAction() const;

  // Checkpoint/resume of the full learned state, including the exploration
  // RNG, so a resumed agent continues the exact same decision sequence.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

  const QTable& table() const { return table_; }
  QTable& mutable_table() { return table_; }
  const StateEncoder& encoder() const { return encoder_; }
  StateEncoder& mutable_encoder() { return encoder_; }
  const RlhfConfig& config() const { return config_; }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.encoder_, self.rng_, self.table_, self.ma_participation_, self.ma_accuracy_,
       self.ma_seen_, self.cached_accuracy_, self.cache_valid_, self.max_improvement_seen_,
       self.global_action_value_, self.global_action_count_, self.run_action_count_,
       self.run_action_success_, self.run_action_accuracy_, self.reward_history_,
       self.rejected_rewards_, self.rejected_observations_);
  }

  static int ActionIndexOf(TechniqueKind kind);
  // Replaces non-finite observation fields with neutral defaults (counted in
  // rejected_observations_) so a poisoned trace cannot derail state encoding.
  ClientObservation SanitizeObservation(const ClientObservation& client);

  StateEncoder encoder_;
  RlhfConfig config_;
  Rng rng_;
  QTable table_;
  // Per-(state, action) exponential moving averages of each objective.
  std::vector<double> ma_participation_;
  std::vector<double> ma_accuracy_;
  std::vector<uint8_t> ma_seen_;
  // Per-(state, action) cached accuracy feedback from successful clients in
  // the same state (RQ7).
  std::vector<double> cached_accuracy_;
  std::vector<uint8_t> cache_valid_;
  double max_improvement_seen_ = 1e-6;
  // Hierarchical fallback: state-agnostic per-action value estimates used in
  // place of never-visited (state, action) cells, so the agent generalizes
  // "prune75 usually works" before it has visited every state.
  std::vector<double> global_action_value_;
  std::vector<uint32_t> global_action_count_;
  // Run-local per-action feedback tallies (reset by InitializeFrom).
  std::vector<uint32_t> run_action_count_;
  std::vector<double> run_action_success_;
  std::vector<double> run_action_accuracy_;
  std::vector<double> reward_history_;
  size_t rejected_rewards_ = 0;
  size_t rejected_observations_ = 0;
};

}  // namespace floatfl

#endif  // SRC_CORE_RLHF_AGENT_H_
