#include "src/failure/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace floatfl {
namespace {

// Domain-separation salts so the eligibility, Markov and per-round fault
// streams never collide even for equal (round, client) keys.
constexpr uint64_t kEligibilitySalt = 0x5EED0F17A7B3C9D1ULL;
constexpr uint64_t kFlakySalt = 0x9D2C5680F1E3A7B5ULL;
constexpr uint64_t kFaultSalt = 0xC3A5C85C97CB3127ULL;
constexpr uint64_t kByzantineSalt = 0xB1A5EDC0117D3A70ULL;
constexpr uint64_t kAttackSalt = 0xA77AC4B5D2E9F163ULL;
constexpr uint64_t kInterruptSalt = 0x1F7E2D9B6C4A5E38ULL;

}  // namespace

bool IsValidUpdateQuality(double quality) {
  return std::isfinite(quality) && quality >= 0.0 && quality <= 1.0;
}

double PoisonedQuality(uint32_t corrupt_kind) {
  switch (corrupt_kind % 3) {
    case 0:
      return std::nan("");
    case 1:
      return std::numeric_limits<double>::infinity();
    default:
      return 1e9;  // exploding magnitude, finite but far out of band
  }
}

FaultInjector::FaultInjector(const FaultConfig& config, uint64_t seed, size_t num_clients)
    : config_(config),
      seed_(seed),
      enabled_(config.InjectionEnabled() || config.AttacksEnabled()) {
  if (enabled_) {
    chains_ = FlakyChains(seed_, num_clients,
                          {.eligibility_salt = kEligibilitySalt,
                           .flaky_salt = kFlakySalt,
                           .byzantine_salt = kByzantineSalt,
                           .flaky_fraction = config_.flaky_fraction,
                           .enter_prob = config_.flaky_enter_prob,
                           .exit_prob = config_.flaky_exit_prob,
                           .byzantine_fraction =
                               config_.AttacksEnabled() ? config_.byzantine_fraction : 0.0});
  }
}

bool FaultInjector::InBlackout(double now_s) const {
  if (!enabled_ || config_.blackout_period_s <= 0.0 || config_.blackout_duration_s <= 0.0) {
    return false;
  }
  const double phase = std::fmod(now_s, config_.blackout_period_s);
  return phase < config_.blackout_duration_s;
}

FaultDecision FaultInjector::Decide(size_t round, size_t client_id, double now_s) const {
  FaultDecision decision;
  if (!enabled_) {
    return decision;
  }
  decision.blackout = InBlackout(now_s);
  const Rng root(seed_ ^ kFaultSalt);
  Rng stream = root.ForkKeyed(Rng::StreamKey(round, client_id));
  // Fixed draw order keeps every decision a pure function of (seed, round,
  // client), independent of which faults actually fire.
  const double crash_u = stream.NextDouble();
  decision.crash_fraction = stream.Uniform(0.05, 0.95);
  const double corrupt_u = stream.NextDouble();
  decision.corrupt_kind = static_cast<uint32_t>(stream.UniformInt(3));
  double crash_prob = config_.crash_prob;
  if (IsFlaky(client_id)) {
    crash_prob += config_.flaky_crash_prob;
  }
  decision.crash = crash_u < crash_prob;
  decision.corrupt = !decision.crash && corrupt_u < config_.corrupt_prob;
  decision.byzantine = !decision.crash && !decision.corrupt &&
                       round >= config_.byzantine_start_round && IsByzantine(client_id);
  return decision;
}

Rng FaultInjector::AttackRng(size_t round, size_t client_id) const {
  const Rng root(seed_ ^ kAttackSalt);
  return root.ForkKeyed(Rng::StreamKey(round, client_id));
}

double FaultInjector::InterruptionPoint(size_t round, size_t client_id) const {
  const Rng root(seed_ ^ kInterruptSalt);
  Rng stream = root.ForkKeyed(Rng::StreamKey(round, client_id));
  return stream.NextDouble();
}

double FaultInjector::AttackedQuality(double quality, size_t round, size_t client_id) const {
  switch (config_.byzantine_mode) {
    case ByzantineMode::kSignFlip:
      // A worthless contribution that still passes IsValidUpdateQuality —
      // the quality-space shadow of an update crafted to evade validation.
      return 0.0;
    case ByzantineMode::kScaledReplacement:
      // Model replacement's quality-space shadow: a *negative* quality whose
      // magnitude is the amplification factor. The surrogate convergence
      // model turns it into active accuracy damage
      // (SurrogateAccuracyModel::RoundUpdate); robust quality aggregators see
      // an extreme low outlier they can trim.
      return -config_.byzantine_scale;
    case ByzantineMode::kGaussianNoise: {
      Rng rng = AttackRng(round, client_id);
      const double noisy = quality + rng.Normal(0.0, 0.3 * config_.byzantine_scale);
      return std::min(1.0, std::max(0.0, noisy));
    }
    case ByzantineMode::kNone:
    default:
      return quality;
  }
}

}  // namespace floatfl
