// Deterministic, seeded fault injection layered on the trace-driven
// simulator (DESIGN.md §8).
//
// All randomness is drawn from streams keyed by (seed, round, client_id)
// via Rng::ForkKeyed, never from an advancing shared stream, so a fault
// decision depends only on the experiment seed and the (round, client)
// coordinate — not on thread count, scheduling, or how many other faults
// fired. Decide() is const and touches no mutable state, making it safe to
// call from the engines' parallel client fan-out. The only mutable state is
// the per-client Markov flaky vector, advanced once per round in the
// engines' sequential phase and serialized into checkpoints.
#ifndef SRC_FAILURE_FAULT_INJECTOR_H_
#define SRC_FAILURE_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/fault_config.h"
#include "src/failure/flaky_chains.h"

namespace floatfl {

// Outcome of the fault draws for one (round, client) coordinate.
struct FaultDecision {
  // The server cannot reach the client at all (network blackout window).
  bool blackout = false;
  // The client process dies mid-round, at crash_fraction of its round time.
  bool crash = false;
  double crash_fraction = 0.5;
  // The client completes but its update is corrupted.
  bool corrupt = false;
  // 0 = NaN values, 1 = Inf values, 2 = exploding norm.
  uint32_t corrupt_kind = 0;
  // The client is a colluding Byzantine attacker this round: it completes,
  // passes validation, and submits a crafted update (FaultConfig
  // byzantine_*). Mutually exclusive with crash/corrupt — those faults
  // pre-empt the attack.
  bool byzantine = false;
};

// Server-side update validation (quarantine). A contribution quality is
// valid when finite and within the physically meaningful [0, 1] band the
// surrogate engines produce; poisoned qualities fall far outside it.
bool IsValidUpdateQuality(double quality);
// The poisoned quality value a corrupted surrogate update carries.
double PoisonedQuality(uint32_t corrupt_kind);

class FaultInjector {
 public:
  // Disabled injector: never fires, BeginRound is a no-op.
  FaultInjector() = default;
  FaultInjector(const FaultConfig& config, uint64_t seed, size_t num_clients);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }

  // Advances the per-client flaky Markov chains to `round`. Call once at the
  // start of each round/aggregation, from sequential code. Safe to call with
  // non-consecutive rounds after a resume (the chain is advanced per missing
  // round, each with its own (round, client)-keyed draw).
  void BeginRound(size_t round) { chains_.BeginRound(round); }

  // True while `now_s` falls inside a configured blackout window.
  bool InBlackout(double now_s) const;

  // Pure draw for one (round, client): thread-safe, order-independent.
  // `now_s` feeds the blackout check.
  FaultDecision Decide(size_t round, size_t client_id, double now_s) const;

  bool IsFlakyEligible(size_t client_id) const { return chains_.IsFlakyEligible(client_id); }
  bool IsFlaky(size_t client_id) const { return chains_.IsFlaky(client_id); }

  // True when attacks are configured and `client_id` belongs to the seeded
  // colluding fraction (drawn once at construction, like flaky
  // eligibility). Colluders attack in every round they complete.
  bool IsByzantine(size_t client_id) const { return chains_.IsByzantine(client_id); }

  // Independent per-(round, client) stream for attack randomness (Gaussian
  // noise). Keyed like Decide()'s draws, so attacks are thread-count
  // invariant and survive checkpoint/resume.
  Rng AttackRng(size_t round, size_t client_id) const;

  // Interruption-point draw for graceful degradation (DESIGN.md §16): where
  // inside its local work a client was when an injected fault cut it short,
  // as a fraction in [0, 1). Drawn from its own salted (round, client) key —
  // independent of Decide()'s fixed draw sequence — so the salvage layer can
  // consult it only when armed without perturbing any other stream. Pure and
  // const: safe to call from the sequential phase of any engine.
  double InterruptionPoint(size_t round, size_t client_id) const;

  // Quality-space attack for the surrogate engines: sign-flip submits a
  // worthless-but-valid contribution (quality 0, inside the [0, 1]
  // validation band), scaled replacement submits a negative quality of
  // magnitude byzantine_scale (active poisoning pressure the surrogate
  // convergence model converts into accuracy damage), Gaussian noise
  // perturbs the honest quality and clamps back into the band.
  double AttackedQuality(double quality, size_t round, size_t client_id) const;

  void SaveState(CheckpointWriter& w) const { chains_.SaveState(w); }
  bool LoadState(CheckpointReader& r) { return chains_.LoadState(r); }

 private:
  FaultConfig config_;
  uint64_t seed_ = 0;
  bool enabled_ = false;
  // Flaky episodes and colluder membership per client.
  FlakyChains chains_;
};

}  // namespace floatfl

#endif  // SRC_FAILURE_FAULT_INJECTOR_H_
