#include "src/models/surrogate_accuracy.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {
namespace {

// Caps for the adversarial-damage path in RoundUpdate: per-update damage is
// bounded (one absurd negative quality cannot zero a run) and the decay per
// round is a fixed fraction of the accuracy gained so far.
constexpr double kMaxDamagePerUpdate = 8.0;
constexpr double kPoisonDecay = 0.25;

}  // namespace

SurrogateConfig SurrogateConfigFor(const DatasetSpec& spec, double participation_target) {
  SurrogateConfig config;
  config.max_accuracy = spec.max_accuracy;
  config.initial_accuracy = spec.initial_accuracy;
  config.convergence_rate = spec.convergence_rate;
  config.participation_target = participation_target;
  return config;
}

SurrogateAccuracyModel::SurrogateAccuracyModel(const SurrogateConfig& config,
                                               const std::vector<ClientShard>& shards)
    : config_(config), global_accuracy_(config.initial_accuracy), shards_(shards) {
  FLOATFL_CHECK(!shards.empty());
  FLOATFL_CHECK(config.participation_target > 0.0);
  global_dist_ = GlobalLabelDistribution(shards_);
  divergence_.reserve(shards_.size());
  data_share_.reserve(shards_.size());
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += static_cast<double>(shard.total);
  }
  for (const auto& shard : shards_) {
    divergence_.push_back(LabelDivergence(shard, global_dist_));
    data_share_.push_back(total > 0.0 ? static_cast<double>(shard.total) / total : 0.0);
  }
  contrib_ewma_.assign(shards_.size(), 0.0);
  ever_contributed_.assign(shards_.size(), false);
}

void SurrogateAccuracyModel::RoundUpdate(const std::vector<ClientContribution>& successful) {
  ++rounds_;
  // Decay everyone's smoothed contribution level, then credit this round's
  // successful contributors.
  for (auto& c : contrib_ewma_) {
    c *= 0.995;
  }
  double effective_updates = 0.0;
  // Adversarial pressure: contributions with *negative* quality — the
  // quality-space shadow of a model-replacement attack
  // (FaultInjector::AttackedQuality) — actively drag the global accuracy
  // back toward its initial value instead of merely contributing nothing.
  // Per-update damage is capped so one absurd magnitude cannot zero the run.
  double damage = 0.0;
  std::vector<double> cohort_dist(global_dist_.size(), 0.0);
  double cohort_mass = 0.0;
  // Sum of contribution weights — the denominator of the round-quality
  // average. Full updates weigh 1.0, salvaged partials their completed-work
  // fraction (DESIGN.md §16); with all-1.0 weights the sum equals
  // successful.size() exactly, so the pre-salvage arithmetic is preserved
  // bit-for-bit.
  double weight_total = 0.0;
  for (const auto& contribution : successful) {
    FLOATFL_CHECK(contribution.client_id < shards_.size());
    const double discount =
        1.0 / (1.0 + config_.staleness_discount * std::max(0.0, contribution.staleness));
    const double quality = std::clamp(contribution.quality, 0.0, 1.0);
    if (contribution.quality < 0.0) {
      damage += std::min(-contribution.quality, kMaxDamagePerUpdate) * discount *
                contribution.weight;
    }
    effective_updates += quality * discount * contribution.weight;
    weight_total += contribution.weight;
    const size_t id = contribution.client_id;
    contrib_ewma_[id] =
        std::min(1.0, contrib_ewma_[id] + 0.15 * quality * discount * contribution.weight);
    ever_contributed_[id] = true;
    for (size_t k = 0; k < cohort_dist.size(); ++k) {
      cohort_dist[k] += static_cast<double>(shards_[id].class_counts[k]) * contribution.weight;
    }
    cohort_mass += static_cast<double>(shards_[id].total) * contribution.weight;
  }
  if (effective_updates <= 0.0 && damage <= 0.0) {
    // A wholly failed round contributes nothing (the paper: progress made by
    // dropped clients is lost).
    return;
  }
  if (effective_updates > 0.0) {
    // Participation factor: sub-linear in the number of effective updates,
    // saturating slightly above the target (diminishing returns of more
    // parallel clients per round).
    const double participation =
        std::min(1.25, effective_updates / config_.participation_target);
    // Cohort bias: L1 divergence of this round's aggregated data from the
    // global distribution, normalized to [0, 1].
    double round_divergence = 0.0;
    if (cohort_mass > 0.0) {
      for (size_t k = 0; k < cohort_dist.size(); ++k) {
        round_divergence += std::fabs(cohort_dist[k] / cohort_mass - global_dist_[k]);
      }
      round_divergence *= 0.5;
    }
    const double rate = config_.convergence_rate * std::pow(participation, 0.6) *
                        (1.0 - 0.5 * round_divergence);
    // Smoothed update quality: persistent aggressive optimization (8-bit
    // quantization, 75 % pruning/partial training on every update) caps the
    // accuracy the federation can reach, not just its speed.
    const double round_quality =
        effective_updates > 0.0 && weight_total > 0.0 ? effective_updates / weight_total : 1.0;
    quality_ewma_ += 0.1 * (round_quality - quality_ewma_);
    const double quality_factor = std::clamp(1.0 - 1.2 * (1.0 - quality_ewma_), 0.5, 1.0);
    // Achievable ceiling grows with cumulative data coverage: a model that has
    // never seen 40% of the data mass cannot reach full accuracy.
    const double coverage = DataCoverage();
    const double ceiling = config_.initial_accuracy +
                           (config_.max_accuracy - config_.initial_accuracy) *
                               (0.35 + 0.65 * coverage) * quality_factor;
    if (global_accuracy_ < ceiling) {
      global_accuracy_ += rate * (ceiling - global_accuracy_);
    }
    global_accuracy_ =
        std::clamp(global_accuracy_, config_.initial_accuracy, config_.max_accuracy);
  }
  if (damage > 0.0) {
    // Aggregated poisoning decays accuracy toward the initial value, scaled
    // by how much of a target-sized cohort the attackers amount to. With 20%
    // scaled-replacement attackers at scale 3 this erases ~15% of the gap
    // above initial accuracy per round — fast enough that an unguarded run
    // visibly collapses and a divergence watchdog has something to catch.
    const double pressure = std::min(1.0, damage / config_.participation_target);
    global_accuracy_ -= kPoisonDecay * pressure * (global_accuracy_ - config_.initial_accuracy);
    global_accuracy_ =
        std::clamp(global_accuracy_, config_.initial_accuracy, config_.max_accuracy);
  }
}

double SurrogateAccuracyModel::ClientAccuracy(size_t client_id) const {
  FLOATFL_CHECK(client_id < divergence_.size());
  const double mismatch = 0.5 * divergence_[client_id];  // [0, 1]
  const double neglect = 1.0 - std::min(1.0, contrib_ewma_[client_id]);
  const double penalty = config_.divergence_penalty * mismatch * neglect;
  return std::max(0.0, global_accuracy_ * (1.0 - penalty));
}

std::vector<double> SurrogateAccuracyModel::AllClientAccuracies() const {
  std::vector<double> out(divergence_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ClientAccuracy(i);
  }
  return out;
}

double SurrogateAccuracyModel::DataCoverage() const {
  double covered = 0.0;
  for (size_t i = 0; i < data_share_.size(); ++i) {
    if (ever_contributed_[i]) {
      covered += data_share_[i];
    }
  }
  return covered;
}

}  // namespace floatfl
