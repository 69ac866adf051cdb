#include "src/core/rlhf_agent.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {

RlhfAgent::RlhfAgent(const StateEncoderConfig& encoder_config, const RlhfConfig& config,
                     size_t num_actions)
    : encoder_(encoder_config),
      config_(config),
      rng_(config.seed),
      table_(encoder_.NumStates(), num_actions, rng_, /*init_scale=*/0.01),
      ma_participation_(encoder_.NumStates() * num_actions, 0.0),
      ma_accuracy_(encoder_.NumStates() * num_actions, 0.0),
      ma_seen_(encoder_.NumStates() * num_actions, 0),
      cached_accuracy_(encoder_.NumStates() * num_actions, 0.0),
      cache_valid_(encoder_.NumStates() * num_actions, 0),
      global_action_value_(num_actions, 0.0),
      global_action_count_(num_actions, 0),
      run_action_count_(num_actions, 0),
      run_action_success_(num_actions, 0.0),
      run_action_accuracy_(num_actions, 0.0) {
  FLOATFL_CHECK(config.moving_average_window > 0);
  FLOATFL_CHECK(config.total_rounds > 0);
  FLOATFL_CHECK(config.w_participation >= 0.0 && config.w_accuracy >= 0.0);
  FLOATFL_CHECK(config.w_participation + config.w_accuracy > 0.0);
}

int RlhfAgent::ActionIndexOf(TechniqueKind kind) {
  const auto& actions = ActionTechniques();
  for (size_t i = 0; i < actions.size(); ++i) {
    if (actions[i] == kind) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t RlhfAgent::ChooseActionIndex(size_t state, size_t round) {
  FLOATFL_CHECK(state < table_.num_states());
  const double progress =
      std::min(1.0, static_cast<double>(round) / static_cast<double>(config_.total_rounds));
  const double epsilon = std::max(config_.epsilon_min, config_.epsilon * (1.0 - progress));
  if (rng_.NextDouble() < epsilon) {
    // Exploration. Balanced exploration (RQ6) deliberately visits the action
    // this state has tried the least, instead of a uniform draw that keeps
    // re-sampling popular configurations.
    if (config_.balanced_exploration) {
      return table_.LeastVisitedAction(state);
    }
    return static_cast<size_t>(rng_.UniformInt(table_.num_actions()));
  }
  // Exploitation with hierarchical shrinkage: each cell's value is blended
  // with the state-agnostic per-action average using pseudo-counts, so a
  // young table generalizes ("75% pruning usually works") and a
  // well-visited cell dominates its own estimate.
  constexpr double kPseudoCounts = 3.0;
  size_t best = 0;
  double best_value = -1e300;
  for (size_t a = 0; a < table_.num_actions(); ++a) {
    const double n = static_cast<double>(table_.Visits(state, a));
    const double value = (n * table_.Q(state, a) + kPseudoCounts * global_action_value_[a]) /
                         (n + kPseudoCounts);
    if (value > best_value) {
      best_value = value;
      best = a;
    }
  }
  return best;
}

ClientObservation RlhfAgent::SanitizeObservation(const ClientObservation& client) {
  if (std::isfinite(client.cpu_avail) && std::isfinite(client.mem_avail) &&
      std::isfinite(client.net_avail) && std::isfinite(client.deadline_diff)) {
    return client;
  }
  ++rejected_observations_;
  ClientObservation clean = client;
  if (!std::isfinite(clean.cpu_avail)) clean.cpu_avail = 1.0;
  if (!std::isfinite(clean.mem_avail)) clean.mem_avail = 1.0;
  if (!std::isfinite(clean.net_avail)) clean.net_avail = 1.0;
  if (!std::isfinite(clean.deadline_diff)) clean.deadline_diff = 0.0;
  return clean;
}

TechniqueKind RlhfAgent::ChooseTechnique(const ClientObservation& client,
                                         const GlobalObservation& global, size_t round) {
  FLOATFL_CHECK(table_.num_actions() == ActionTechniques().size());
  const size_t state = encoder_.Encode(SanitizeObservation(client), global);
  const size_t action = ChooseActionIndex(state, round);
  return ActionTechniques()[action];
}

double RlhfAgent::LearningRateFor(size_t round) const {
  const double progress = static_cast<double>(round) / static_cast<double>(config_.total_rounds);
  return std::clamp(progress, config_.min_learning_rate, 1.0);
}

void RlhfAgent::FeedbackIndexed(size_t state, size_t action, bool participated,
                                double accuracy_improvement, size_t round) {
  FLOATFL_CHECK(state < table_.num_states());
  FLOATFL_CHECK(action < table_.num_actions());
  // Boundary validation: a NaN improvement would propagate through the
  // accuracy score into the moving averages, the reward and SetQ — poisoning
  // every value it touches permanently — and a +Inf would lock
  // max_improvement_seen_ at infinity, zeroing all future accuracy scores.
  // Reject and learn participation-only instead (the improvement becomes 0,
  // which the clamp below treats as "no measurable gain").
  constexpr double kMaxCredibleImprovement = 1e3;  // accuracies live in [0, 1]
  if (!std::isfinite(accuracy_improvement) ||
      std::fabs(accuracy_improvement) > kMaxCredibleImprovement) {
    ++rejected_rewards_;
    accuracy_improvement = 0.0;
  }
  const size_t cell = state * table_.num_actions() + action;

  // Run-local tallies for the per-action Q-table views (Figure 10); these
  // record what actually happened regardless of whether the agent can learn
  // from it below.
  ++run_action_count_[action];
  run_action_success_[action] += participated ? 1.0 : 0.0;

  if (!participated && !config_.cache_dropout_feedback) {
    // RQ7: a dropped-out client never reports back, so without the feedback
    // cache this (state, action) receives NO training signal at all — the
    // plain-RL ablation learns only from survivors and systematically
    // over-trusts mild actions that quietly fail (Figure 11).
    reward_history_.push_back(0.0);
    return;
  }

  // Normalize the accuracy objective to [0, 1] against the best improvement
  // observed so far (accuracy gains shrink over rounds; raw values would
  // make early feedback dominate).
  double accuracy_score = 0.0;
  if (participated) {
    if (accuracy_improvement > max_improvement_seen_) {
      max_improvement_seen_ = accuracy_improvement;
    }
    accuracy_score =
        std::clamp(accuracy_improvement / max_improvement_seen_, 0.0, 1.0);
    // Refresh the similar-client cache (RQ7).
    cached_accuracy_[cell] = accuracy_score;
    cache_valid_[cell] = 1;
  } else if (config_.cache_dropout_feedback && cache_valid_[cell] != 0) {
    // The dropped client produced no validation feedback; estimate it from
    // cached feedback of similar (same-state, same-action) clients, damped
    // because the estimate is secondhand.
    accuracy_score = 0.5 * cached_accuracy_[cell];
  }

  const double participation_score = participated ? 1.0 : 0.0;

  // Moving-average objectives (RQ6), exponential with beta = 1/window.
  const double beta = 1.0 / static_cast<double>(config_.moving_average_window);
  if (ma_seen_[cell] == 0) {
    ma_participation_[cell] = participation_score;
    ma_accuracy_[cell] = accuracy_score;
    ma_seen_[cell] = 1;
  } else {
    ma_participation_[cell] += beta * (participation_score - ma_participation_[cell]);
    ma_accuracy_[cell] += beta * (accuracy_score - ma_accuracy_[cell]);
  }

  const double w_sum = config_.w_participation + config_.w_accuracy;
  const double reward =
      (config_.w_participation * ma_participation_[cell] + config_.w_accuracy * ma_accuracy_[cell]) /
      w_sum;
  const double instant_reward =
      (config_.w_participation * participation_score + config_.w_accuracy * accuracy_score) / w_sum;
  reward_history_.push_back(instant_reward);

  // Bellman update with the paper's gamma->0 adjustment: the successor state
  // is driven by random resource fluctuations, so its contribution is kept
  // near zero (config_.discount) and evaluated at the current state.
  const double lr = LearningRateFor(round);
  const double target = reward + config_.discount * table_.MaxQ(state);
  const double q = table_.Q(state, action);
  table_.SetQ(state, action, q + lr * (target - q));
  table_.AddVisit(state, action);

  // Update the hierarchical fallback estimate for the action.
  ++global_action_count_[action];
  global_action_value_[action] +=
      (instant_reward - global_action_value_[action]) /
      static_cast<double>(global_action_count_[action]);

  run_action_accuracy_[action] += accuracy_score;
}

void RlhfAgent::Feedback(const ClientObservation& client, const GlobalObservation& global,
                         TechniqueKind technique, bool participated, double accuracy_improvement,
                         size_t round) {
  const int action = ActionIndexOf(technique);
  if (action < 0) {
    return;  // kNone / compression are outside the tunable action space
  }
  const size_t state = encoder_.Encode(SanitizeObservation(client), global);
  FeedbackIndexed(state, static_cast<size_t>(action), participated, accuracy_improvement, round);
}

double RlhfAgent::AverageRewardOver(size_t last_n) const {
  if (reward_history_.empty()) {
    return 0.0;
  }
  const size_t n = std::min(last_n, reward_history_.size());
  double sum = 0.0;
  for (size_t i = reward_history_.size() - n; i < reward_history_.size(); ++i) {
    sum += reward_history_[i];
  }
  return sum / static_cast<double>(n);
}

double RlhfAgent::PositiveRewardFraction(size_t last_n) const {
  if (reward_history_.empty()) {
    return 0.0;
  }
  const size_t n = std::min(last_n, reward_history_.size());
  size_t positive = 0;
  for (size_t i = reward_history_.size() - n; i < reward_history_.size(); ++i) {
    if (reward_history_[i] > 0.0) {
      ++positive;
    }
  }
  return static_cast<double>(positive) / static_cast<double>(n);
}

void RlhfAgent::InitializeFrom(const RlhfAgent& pretrained) {
  table_.InitializeFrom(pretrained.table_);
  ma_participation_ = pretrained.ma_participation_;
  ma_accuracy_ = pretrained.ma_accuracy_;
  ma_seen_ = pretrained.ma_seen_;
  cached_accuracy_ = pretrained.cached_accuracy_;
  cache_valid_ = pretrained.cache_valid_;
  // The accuracy-reward normalizer is workload-specific (per-round accuracy
  // deltas differ across datasets/models); re-fit it on the new deployment.
  max_improvement_seen_ = 1e-6;
  global_action_value_ = pretrained.global_action_value_;
  global_action_count_ = pretrained.global_action_count_;
  run_action_count_.assign(run_action_count_.size(), 0);
  run_action_success_.assign(run_action_success_.size(), 0.0);
  run_action_accuracy_.assign(run_action_accuracy_.size(), 0.0);
  reward_history_.clear();
}

std::vector<RlhfAgent::ActionSummary> RlhfAgent::SummarizePerAction() const {
  std::vector<ActionSummary> out(table_.num_actions());
  const bool standard_actions = table_.num_actions() == ActionTechniques().size();
  for (size_t a = 0; a < table_.num_actions(); ++a) {
    ActionSummary& summary = out[a];
    if (standard_actions) {
      summary.technique = ActionTechniques()[a];
    }
    summary.visits = run_action_count_[a];
    if (summary.visits > 0) {
      const double n = static_cast<double>(summary.visits);
      summary.avg_participation = run_action_success_[a] / n;
      summary.avg_accuracy = run_action_accuracy_[a] / n;
    }
    // Average learned Q over the cells this action has ever been tried in.
    double q_sum = 0.0;
    size_t visited_cells = 0;
    for (size_t s = 0; s < table_.num_states(); ++s) {
      if (table_.Visits(s, a) > 0) {
        q_sum += table_.Q(s, a);
        ++visited_cells;
      }
    }
    if (visited_cells > 0) {
      summary.avg_q = q_sum / static_cast<double>(visited_cells);
    }
  }
  return out;
}

size_t RlhfAgent::MemoryBytes() const {
  return table_.MemoryBytes() + ma_participation_.size() * sizeof(double) +
         ma_accuracy_.size() * sizeof(double) + ma_seen_.size() +
         cached_accuracy_.size() * sizeof(double) + cache_valid_.size();
}

}  // namespace floatfl
