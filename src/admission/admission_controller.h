// Deterministic server-ingestion gate (DESIGN.md §15).
//
// Every engine funnels its delivered uploads — plus whatever duplicates,
// replays and stampede bursts the overload injector adds — through one
// Admit() call per ingestion burst. The gate applies, per arrival and in
// arrival order: (1) idempotent deduplication keyed (client, round,
// attempt), (2) replay-age rejection, (3) per-client token-bucket rate
// limiting, (4) the bounded ingress queue with the configured shedding
// policy. Everything is plain sequential bookkeeping over deterministic
// inputs — no RNG draws — so admission is trivially thread-count invariant;
// the dedup window and token buckets serialize for bit-exact resume.
#ifndef SRC_ADMISSION_ADMISSION_CONTROLLER_H_
#define SRC_ADMISSION_ADMISSION_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/failure/checkpoint_io.h"
#include "src/metrics/admission_tracker.h"

namespace floatfl {

enum class DropoutReason : uint32_t;

class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionConfig& config) : config_(config) {}

  // One delivery attempt reaching the server's ingress.
  struct Arrival {
    size_t client_id = 0;
    // Round (sync/real) or start version (async) the upload belongs to.
    uint64_t round = 0;
    // Delivery attempt number; injected at-least-once duplicates carry the
    // attempt of the delivery they duplicate, which is what lets the dedup
    // key fold them.
    uint64_t attempt = 0;
    // Age of the upload in aggregation rounds (0 for a fresh upload).
    double staleness = 0.0;
    // Shedding priority under SheddingPolicy::kUtilityPriority: the sync
    // engine passes the selector's utility score, the others update quality.
    double utility = 0.0;
  };

  struct Verdict {
    bool admitted = false;
    // kNone when admitted; kDuplicate / kReplayed / kRateLimited / kShed
    // otherwise.
    DropoutReason reason{};
    // Contribution weight of an admitted arrival (staleness downweighting;
    // 1.0 unless enabled).
    double weight = 1.0;
  };

  bool enabled() const { return config_.enabled(); }
  const AdmissionConfig& config() const { return config_; }

  // Gates one ordered ingestion burst arriving at `now_round`. Returns one
  // verdict per arrival, same order. Records per-verdict counters and the
  // burst's peak queue depth into `tracker` (may be null). A disabled gate
  // admits every arrival at weight 1 and records nothing, so engines call
  // this whether or not the layer is on.
  std::vector<Verdict> Admit(uint64_t now_round, const std::vector<Arrival>& arrivals,
                             AdmissionTracker* tracker);

  // Checkpoint/resume of the gate's cross-round state: the dedup window and
  // the token buckets. (The ingress queue drains within a burst and has no
  // cross-round state.)
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.seen_, self.buckets_);
  }

  // (client, round, attempt) — sorted so serialization is deterministic.
  using DedupKey = std::tuple<uint64_t, uint64_t, uint64_t>;
  struct Bucket {
    double tokens = 0.0;
    uint64_t last_refill_round = 0;

    template <typename Self, typename Archive>
    static void Fields(Self& self, Archive& a) {
      Io(a, self.tokens, self.last_refill_round);
    }
  };

  AdmissionConfig config_;
  std::set<DedupKey> seen_;
  std::map<uint64_t, Bucket> buckets_;
};

}  // namespace floatfl

#endif  // SRC_ADMISSION_ADMISSION_CONTROLLER_H_
