#include "src/failure/edge_fault_injector.h"

#include "src/common/check.h"

namespace floatfl {
namespace {

// Domain-separation salts so the edge-tier eligibility, Markov, fault and
// attack streams never collide with each other or with the client-tier
// injector's, which keys the same (round, index) coordinate space.
constexpr uint64_t kEdgeEligibilitySalt = 0x452821E638D01377ULL;
constexpr uint64_t kEdgeFlakySalt = 0xBE5466CF34E90C6CULL;
constexpr uint64_t kEdgeFaultSalt = 0xC0AC29B7C97C50DDULL;
constexpr uint64_t kEdgeByzantineSalt = 0x3F84D5B5B5470917ULL;
constexpr uint64_t kEdgeAttackSalt = 0x9216D5D98979FB1BULL;

}  // namespace

EdgeFaultInjector::EdgeFaultInjector(const TopologyConfig& config, uint64_t seed,
                                     size_t num_edges)
    : config_(config),
      seed_(seed),
      enabled_(config.EdgeFaultsEnabled() || config.EdgeAttacksEnabled()) {
  FLOATFL_CHECK_MSG(num_edges == config.num_edges, "edge injector / topology size mismatch");
  if (enabled_) {
    chains_ = FlakyChains(seed_, num_edges,
                          {.eligibility_salt = kEdgeEligibilitySalt,
                           .flaky_salt = kEdgeFlakySalt,
                           .byzantine_salt = kEdgeByzantineSalt,
                           .flaky_fraction = config_.edge_flaky_fraction,
                           .enter_prob = config_.edge_flaky_enter_prob,
                           .exit_prob = config_.edge_flaky_exit_prob,
                           .byzantine_fraction = config_.EdgeAttacksEnabled()
                                                     ? config_.edge_byzantine_fraction
                                                     : 0.0});
  }
}

EdgeFaultDecision EdgeFaultInjector::Decide(size_t round, size_t edge) const {
  EdgeFaultDecision decision;
  if (!enabled_) {
    return decision;
  }
  const Rng root(seed_ ^ kEdgeFaultSalt);
  Rng stream = root.ForkKeyed(Rng::StreamKey(round, edge));
  // Fixed draw order keeps every decision a pure function of (seed, round,
  // edge), independent of which faults actually fire.
  const double crash_u = stream.NextDouble();
  const double blackout_u = stream.NextDouble();
  double crash_prob = config_.edge_crash_prob;
  if (IsFlaky(edge)) {
    crash_prob += config_.edge_flaky_crash_prob;
  }
  decision.crash = crash_u < crash_prob;
  decision.blackout = !decision.crash && blackout_u < config_.edge_blackout_prob;
  // A down edge forwards nothing, so there is nothing to tamper with.
  decision.byzantine = !decision.crash && !decision.blackout && IsByzantineEdge(edge);
  return decision;
}

Rng EdgeFaultInjector::AttackRng(size_t round, size_t edge) const {
  const Rng root(seed_ ^ kEdgeAttackSalt);
  return root.ForkKeyed(Rng::StreamKey(round, edge));
}

double EdgeFaultInjector::TamperedQuality(double quality, size_t round, size_t edge) const {
  switch (config_.edge_byzantine_mode) {
    case ByzantineMode::kSignFlip:
      // Worthless but inside the [0, 1] validation band: slips past the
      // root's range check; only a robust root aggregation rule limits it.
      return 0.0;
    case ByzantineMode::kScaledReplacement:
      // Blatant replacement: negative, far out of band — the root's
      // IsValidUpdateQuality re-validation rejects the forwarded
      // contribution (a tampered-partial rejection).
      return -config_.edge_byzantine_scale * (quality + 1.0);
    case ByzantineMode::kGaussianNoise: {
      // Deliberately NOT re-clamped into [0, 1]: large excursions get caught
      // by the root validation, small ones slip through as in-band noise.
      Rng rng = AttackRng(round, edge);
      return quality + rng.Normal(0.0, 0.3 * config_.edge_byzantine_scale);
    }
    case ByzantineMode::kNone:
    default:
      return quality;
  }
}

}  // namespace floatfl
