// Configuration of the deterministic fault model and the server-side
// failure defenses (DESIGN.md §8).
//
// The fault layer sits on top of the benign trace-driven dropout causes
// (offline, OOM, deadline, departure): it injects mid-training crashes,
// periodic network blackouts, Markov two-state "flaky client" episodes and
// corrupted updates. Every draw is keyed by (seed, round, client_id), so
// injection is bit-for-bit thread-count-invariant and resumable. A
// default-constructed FaultConfig disables every fault and every defense —
// the layer is a strict no-op then.
#ifndef SRC_FAILURE_FAULT_CONFIG_H_
#define SRC_FAILURE_FAULT_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace floatfl {

// Adversarial (Byzantine) client behavior. Unlike the benign fault kinds
// above, Byzantine clients complete the round and submit updates crafted to
// *pass* server validation while dragging the aggregate away from the
// optimum — the threat model the robust aggregators (src/agg) defend
// against.
enum class ByzantineMode : uint32_t {
  kNone = 0,
  // Submit g - scale * (p - g): the client's honest delta, reversed and
  // amplified, pointing the aggregate away from descent.
  kSignFlip = 1,
  // Submit g + scale * (p - g): model replacement — the honest delta boosted
  // so a single attacker dominates a plain mean.
  kScaledReplacement = 2,
  // Add N(0, scale) noise to every parameter of the honest update.
  kGaussianNoise = 3,
};

struct FaultConfig {
  // --- Injected client faults -------------------------------------------
  // Per client-round probability of a mid-training process crash. The crash
  // strikes at a seeded uniform fraction of the client's round time; the
  // spend up to that point is charged as waste.
  double crash_prob = 0.0;
  // Per client-round probability of a corrupted update: NaN / Inf /
  // exploding-norm parameters in the real engine, quality-poisoned
  // contributions in the surrogate engines. Corrupted updates complete and
  // are charged full spend; server validation quarantines them.
  double corrupt_prob = 0.0;
  // Periodic network blackout: while blackout_period_s > 0, the window
  // [k * period, k * period + blackout_duration_s) is unreachable for every
  // client (selected clients drop as unavailable; the async engine launches
  // nobody).
  double blackout_period_s = 0.0;
  double blackout_duration_s = 0.0;
  // Markov two-state flaky clients: a seeded flaky_fraction of the
  // population is eligible; eligible clients enter/leave the flaky state
  // with the given per-round probabilities and suffer flaky_crash_prob
  // *additional* crash probability while flaky.
  double flaky_fraction = 0.0;
  double flaky_enter_prob = 0.0;
  double flaky_exit_prob = 0.0;
  double flaky_crash_prob = 0.0;

  // --- Lossy transport (src/net, DESIGN.md §10) -------------------------
  // When the transport layer is active, every model download/upload becomes
  // a chunked transfer integrated over the client's time-varying bandwidth,
  // with per-chunk loss, mid-transfer link blackouts, and retransmission
  // with exponential backoff. All draws are keyed by
  // (seed, round, client, leg, attempt), so transfers are bit-for-bit
  // thread-count invariant and resumable.
  //
  // Force the chunked transport path even with zero loss (useful to study
  // the time-varying-bandwidth effect in isolation). Loss or blackout
  // probabilities > 0 enable it implicitly.
  bool transport = false;
  // Per-chunk probability that a transmitted chunk is lost and must be
  // retransmitted (its wire bytes are charged but not acknowledged).
  double chunk_loss_prob = 0.0;
  // Per-attempt probability that the link blacks out partway through the
  // attempt: chunks past a seeded cut point never transmit and the sender
  // backs off.
  double link_blackout_prob = 0.0;
  // Transfer chunk granularity, MB.
  double transport_chunk_mb = 1.0;
  // Retransmission attempts after the first (exponential backoff with
  // deterministic jitter between attempts). Exhausting them fails the
  // transfer: DropoutReason::kTransferTimedOut.
  size_t max_transfer_retries = 4;
  // Resumable uploads: a retried upload salvages already-acknowledged
  // chunks and pays only the missing tail. Off = restart from scratch.
  // Downloads are always resumable (range requests are free on the
  // serving side).
  bool resumable_uploads = true;

  // --- Adversarial clients ----------------------------------------------
  // Attack crafted by the seeded byzantine_fraction of the population.
  // kNone disables the adversary entirely (strict no-op).
  ByzantineMode byzantine_mode = ByzantineMode::kNone;
  // Fraction of clients that are colluding attackers. Membership is drawn
  // once from the experiment seed (like flaky_fraction) so the same clients
  // attack in every round they participate in — the colluding-fraction
  // model.
  double byzantine_fraction = 0.0;
  // Attack magnitude: the delta amplification for sign-flip / scaled
  // replacement, the noise standard deviation for Gaussian noise.
  double byzantine_scale = 3.0;
  // First round (async: version) at which colluders actually attack; they
  // behave honestly before it. Lets an experiment build a healthy
  // trajectory (and a guard snapshot ring) before the attack lands —
  // matching the "sleeper attacker" threat model. 0 = attack from the
  // start (the exact pre-existing behavior).
  size_t byzantine_start_round = 0;

  // --- Server-overload faults (src/admission, DESIGN.md §15) ------------
  // Ingestion failure modes on the server side of the wire. All draws are
  // keyed (seed, round, client, kind), stateless and thread-count invariant
  // (src/failure/overload_injector.h). All-zero = strict no-op.
  //
  // Per delivered upload: probability that the transport re-delivers it
  // (at-least-once duplicate carrying the same (client, round, attempt) key).
  double duplicate_prob = 0.0;
  // Per client-round: probability that the client's last accepted upload is
  // re-delivered as a stale replay.
  double replay_prob = 0.0;
  // Per round: probability the within-round arrival order is permuted.
  double reorder_prob = 0.0;
  // Completion-stampede episodes: with stampede_prob per round, the
  // duplicate/replay gates draw stampede_factor slots instead of one, so
  // arrivals spike far above ingress-queue capacity.
  double stampede_prob = 0.0;
  size_t stampede_factor = 4;

  // --- Server-side defenses ---------------------------------------------
  // Synchronous over-selection: select ceil(K * overcommit) clients and
  // close the round at the first K valid completions; the abandoned
  // stragglers' spend is charged as waste (DropoutReason::kRejected).
  // 1.0 = exact selection (today's behavior).
  double overcommit = 1.0;
  // Rounds a client that crashed or had an update quarantined is
  // deprioritized by selectors before it may be retried. 0 disables.
  size_t retry_cooldown_rounds = 0;
  // Real-engine update validation: reject uploads whose parameter L2 norm
  // exceeds this (exploding gradients) or that contain non-finite values.
  double reject_norm_threshold = 1e4;
  // Magnitude of the injected exploding-norm corruption in the real engine.
  double corrupt_scale = 1e6;

  // True when any fault can fire. Defenses (overcommit, validation) are
  // governed separately so they also work against naturally bad updates.
  bool InjectionEnabled() const {
    return crash_prob > 0.0 || corrupt_prob > 0.0 ||
           (blackout_period_s > 0.0 && blackout_duration_s > 0.0) ||
           (flaky_fraction > 0.0 && flaky_crash_prob > 0.0);
  }

  // True when engine communication must route through the chunked
  // transport layer instead of the one-shot point-sample cost model.
  bool TransportEnabled() const {
    return transport || chunk_loss_prob > 0.0 || link_blackout_prob > 0.0;
  }

  // True when the server-overload fault side (duplicates, replays,
  // reordering, stampedes) can fire. A stampede alone does nothing — it only
  // multiplies the duplicate/replay draw slots.
  bool OverloadEnabled() const {
    return duplicate_prob > 0.0 || replay_prob > 0.0 || reorder_prob > 0.0;
  }

  // True when the Byzantine adversary can act.
  bool AttacksEnabled() const {
    return byzantine_mode != ByzantineMode::kNone && byzantine_fraction > 0.0 &&
           byzantine_scale > 0.0;
  }

  // The fields in fingerprint order (DESIGN.md §8), which is the order they
  // joined the fingerprint, not their declaration order.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.crash_prob, self.corrupt_prob, self.blackout_period_s, self.blackout_duration_s,
       self.flaky_fraction, self.flaky_enter_prob, self.flaky_exit_prob, self.flaky_crash_prob,
       self.overcommit, self.retry_cooldown_rounds, self.reject_norm_threshold, self.corrupt_scale,
       self.byzantine_mode, self.byzantine_fraction, self.byzantine_scale, self.transport,
       self.chunk_loss_prob, self.link_blackout_prob, self.transport_chunk_mb,
       self.max_transfer_retries, self.resumable_uploads, self.byzantine_start_round,
       self.duplicate_prob, self.replay_prob, self.reorder_prob, self.stampede_prob,
       self.stampede_factor);
  }
};

// Aborts the process with a descriptive message when `config` violates a
// fault-layer invariant. Called from every engine's config validator, so a
// misconfiguration fails at construction in every engine.
void ValidateFaultConfig(const FaultConfig& config);

}  // namespace floatfl

#endif  // SRC_FAILURE_FAULT_CONFIG_H_
