#include "src/admission/admission_controller.h"

#include <algorithm>

#include "src/fl/experiment.h"

namespace floatfl {

std::vector<AdmissionController::Verdict> AdmissionController::Admit(
    uint64_t now_round, const std::vector<Arrival>& arrivals, AdmissionTracker* tracker) {
  std::vector<Verdict> verdicts(arrivals.size());
  if (!config_.enabled()) {
    for (Verdict& v : verdicts) {
      v.admitted = true;
    }
    return verdicts;
  }
  // Forget dedup keys older than the window: an upload from round r is
  // remembered while now_round - r <= dedup_window_rounds; beyond that a
  // re-delivery is the replay gate's problem, not the dedup map's.
  if (config_.dedup) {
    for (auto it = seen_.begin(); it != seen_.end();) {
      if (std::get<1>(*it) + config_.dedup_window_rounds < now_round) {
        it = seen_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const auto reject = [&](size_t i, DropoutReason reason) {
    verdicts[i].admitted = false;
    verdicts[i].reason = reason;
  };

  // Indices (into `arrivals`) currently holding a slot in the ingress queue.
  // The whole burst drains at the end of the call, so admitted == queued.
  std::vector<size_t> queue;
  size_t peak_depth = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    // Gate 1: idempotent admission. A key the window has already seen folds
    // into the earlier delivery, whatever became of it.
    if (config_.dedup) {
      const DedupKey key{a.client_id, a.round, a.attempt};
      if (!seen_.insert(key).second) {
        reject(i, DropoutReason::kDuplicate);
        if (tracker != nullptr) {
          ++tracker->deduplicated;
        }
        continue;
      }
    }
    // Gate 2: replay age. Uploads older than max_update_age rounds carry
    // nothing the current model wants.
    if (config_.reject_replays && a.round + config_.max_update_age < now_round) {
      reject(i, DropoutReason::kReplayed);
      if (tracker != nullptr) {
        ++tracker->replay_rejected;
      }
      continue;
    }
    // Gate 3: per-client token bucket, lazily refilled to now_round. A
    // client first seen mid-run starts with a full bucket.
    if (config_.rate_tokens_per_round > 0.0) {
      const double cap = config_.BucketCap();
      auto [it, fresh] = buckets_.try_emplace(a.client_id, Bucket{cap, now_round});
      Bucket& bucket = it->second;
      if (!fresh && now_round > bucket.last_refill_round) {
        const double rounds_passed =
            static_cast<double>(now_round - bucket.last_refill_round);
        bucket.tokens = std::min(cap, bucket.tokens +
                                          rounds_passed * config_.rate_tokens_per_round);
        bucket.last_refill_round = now_round;
      }
      if (bucket.tokens < 1.0) {
        reject(i, DropoutReason::kRateLimited);
        if (tracker != nullptr) {
          ++tracker->rate_limited;
        }
        continue;
      }
      bucket.tokens -= 1.0;
    }
    // Gate 4: the bounded ingress queue. A full queue sheds per policy —
    // either the incoming arrival or a queued one whose verdict flips.
    if (config_.queue_capacity > 0 && queue.size() >= config_.queue_capacity) {
      size_t evict = queue.size();  // sentinel: shed the incoming arrival
      switch (config_.shed_policy) {
        case SheddingPolicy::kDropNewest:
          break;
        case SheddingPolicy::kDropOldest:
          evict = 0;
          break;
        case SheddingPolicy::kDropStalest: {
          // Stalest of queue ∪ {incoming}; ties keep the queued entry order
          // stable and prefer evicting the earliest-queued.
          size_t worst = 0;
          for (size_t q = 1; q < queue.size(); ++q) {
            if (arrivals[queue[q]].staleness > arrivals[queue[worst]].staleness) {
              worst = q;
            }
          }
          if (a.staleness < arrivals[queue[worst]].staleness) {
            evict = worst;
          }
          break;
        }
        case SheddingPolicy::kUtilityPriority: {
          // Lowest-utility of queue ∪ {incoming}; the incoming arrival must
          // strictly beat the queued minimum to displace it.
          size_t worst = 0;
          for (size_t q = 1; q < queue.size(); ++q) {
            if (arrivals[queue[q]].utility < arrivals[queue[worst]].utility) {
              worst = q;
            }
          }
          if (a.utility > arrivals[queue[worst]].utility) {
            evict = worst;
          }
          break;
        }
      }
      if (tracker != nullptr) {
        ++tracker->shed;
      }
      if (evict == queue.size()) {
        reject(i, DropoutReason::kShed);
        continue;
      }
      reject(queue[evict], DropoutReason::kShed);
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(evict));
    }
    queue.push_back(i);
    peak_depth = std::max(peak_depth, queue.size());
  }

  for (size_t idx : queue) {
    verdicts[idx].admitted = true;
    verdicts[idx].reason = DropoutReason::kNone;
    verdicts[idx].weight = config_.StalenessWeight(arrivals[idx].staleness);
  }
  if (tracker != nullptr) {
    tracker->admitted += queue.size();
    tracker->RecordQueueDepth(peak_depth);
  }
  return verdicts;
}

}  // namespace floatfl
