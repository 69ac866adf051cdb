// Configuration of the server-ingestion (admission) layer (DESIGN.md §15).
//
// The admission gate sits between update delivery and aggregation on every
// engine: a bounded ingress queue with a configurable shedding policy,
// idempotent (deduplicated) admission keyed by (client, round, attempt),
// per-client token-bucket rate limiting, and — for the async engine — the
// bounded-staleness acceptance rule promoted from the old hardcoded
// kMaxStaleness constant, with an optional staleness-downweighting mode.
// A default-constructed AdmissionConfig disables every gate: the engines
// behave byte-for-byte as if the layer did not exist.
#ifndef SRC_ADMISSION_ADMISSION_CONFIG_H_
#define SRC_ADMISSION_ADMISSION_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace floatfl {

// What to evict when an arrival finds the bounded ingress queue full.
enum class SheddingPolicy : uint32_t {
  // Reject the incoming arrival; everything already queued stays.
  kDropNewest = 0,
  // Evict the earliest-queued arrival and admit the incoming one.
  kDropOldest = 1,
  // Evict the queued arrival with the largest staleness (earliest among
  // ties); the incoming arrival is rejected instead when it is at least as
  // stale as everything queued.
  kDropStalest = 2,
  // Evict the queued arrival with the lowest utility score (the sync engine
  // feeds the selector's per-client utility; the other engines fall back to
  // update quality). The incoming arrival is rejected instead when its
  // utility does not beat the queued minimum.
  kUtilityPriority = 3,
};

struct AdmissionConfig {
  // Bounded ingress queue capacity per ingestion burst (a round's deliveries
  // on the sync/real engines, a retirement burst on the async engine).
  // 0 = unbounded queue: nothing is ever shed.
  size_t queue_capacity = 0;
  // Eviction rule applied when an arrival finds the queue full.
  SheddingPolicy shed_policy = SheddingPolicy::kDropNewest;

  // Idempotent admission: remember accepted (client, round, attempt) keys
  // and fold re-deliveries of the same key into one accepted update
  // (DropoutReason::kDuplicate). Keys older than dedup_window_rounds are
  // forgotten — a replay from beyond the window is the replay gate's job.
  bool dedup = false;
  size_t dedup_window_rounds = 4;

  // Replay rejection: refuse uploads older than max_update_age rounds
  // (DropoutReason::kReplayed). With max_update_age == 0 only current-round
  // uploads are admitted. Off by default.
  bool reject_replays = false;
  size_t max_update_age = 0;

  // Per-client deterministic token bucket: each client earns
  // rate_tokens_per_round tokens per round (capped at rate_bucket_cap, which
  // defaults to the refill amount when left 0) and every delivery attempt
  // spends one. An empty bucket rejects the delivery
  // (DropoutReason::kRateLimited). 0 = no rate limiting.
  double rate_tokens_per_round = 0.0;
  double rate_bucket_cap = 0.0;

  // Async bounded-staleness acceptance (the old AsyncEngine::kMaxStaleness
  // constant, now configurable). Updates staler than this are discarded as
  // DropoutReason::kMissedDeadline, exactly as before; the pinned default
  // keeps every pre-admission golden byte-identical.
  double async_max_staleness = 10.0;

  // Staleness downweighting: instead of admitting stale updates at full
  // weight, scale their contribution by 1 / (1 + staleness_decay *
  // staleness). Applies to every engine's admitted arrivals; off by default.
  bool staleness_downweight = false;
  double staleness_decay = 0.25;

  // True when any ingress gate can reject or reweight an arrival. The
  // async_max_staleness field is deliberately excluded: it replaces a
  // pre-existing engine constant and is active (at its pinned default) even
  // when the admission layer itself is off.
  bool enabled() const {
    return queue_capacity > 0 || dedup || reject_replays || rate_tokens_per_round > 0.0 ||
           staleness_downweight;
  }

  // Effective bucket capacity (the refill amount when rate_bucket_cap is 0).
  double BucketCap() const {
    return rate_bucket_cap > 0.0 ? rate_bucket_cap : rate_tokens_per_round;
  }

  // Contribution weight of an admitted arrival with the given staleness.
  double StalenessWeight(double staleness) const {
    if (!staleness_downweight || staleness <= 0.0) {
      return 1.0;
    }
    return 1.0 / (1.0 + staleness_decay * staleness);
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.queue_capacity, self.shed_policy, self.dedup, self.dedup_window_rounds,
       self.reject_replays, self.max_update_age, self.rate_tokens_per_round, self.rate_bucket_cap,
       self.async_max_staleness, self.staleness_downweight, self.staleness_decay);
  }
};

// Aborts the process with a descriptive message when `config` violates an
// admission-layer invariant. Called from ValidateExperimentConfig and the
// real engine's constructor so misconfigurations fail at construction.
void ValidateAdmissionConfig(const AdmissionConfig& config);

}  // namespace floatfl

#endif  // SRC_ADMISSION_ADMISSION_CONFIG_H_
