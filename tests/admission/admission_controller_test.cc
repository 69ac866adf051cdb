// AdmissionController gate semantics (DESIGN.md §15): idempotent dedup with
// a sliding window, replay-age rejection, per-client token buckets, all four
// shedding policies, staleness downweighting, counter accounting, and
// bit-exact save/restore of the cross-round state.
#include <gtest/gtest.h>

#include <vector>

#include "src/admission/admission_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/experiment.h"
#include "src/metrics/admission_tracker.h"

namespace floatfl {
namespace {

using Arrival = AdmissionController::Arrival;
using Verdict = AdmissionController::Verdict;

Arrival Make(size_t client, uint64_t round, uint64_t attempt = 0, double staleness = 0.0,
             double utility = 0.0) {
  Arrival a;
  a.client_id = client;
  a.round = round;
  a.attempt = attempt;
  a.staleness = staleness;
  a.utility = utility;
  return a;
}

TEST(AdmissionControllerTest, DisabledConfigAdmitsEverything) {
  AdmissionController gate{AdmissionConfig{}};
  EXPECT_FALSE(gate.enabled());
  const std::vector<Arrival> burst = {Make(0, 5), Make(0, 5), Make(1, 2), Make(1, 2)};
  const std::vector<Verdict> v = gate.Admit(5, burst, nullptr);
  for (const Verdict& verdict : v) {
    EXPECT_TRUE(verdict.admitted);
    EXPECT_EQ(verdict.weight, 1.0);
  }
  // A disabled gate records nothing: engines route every burst through it,
  // and the admission counters must stay zero while the layer is off.
  AdmissionTracker tracker;
  for (const Verdict& verdict : gate.Admit(5, burst, &tracker)) {
    EXPECT_TRUE(verdict.admitted);
  }
  EXPECT_EQ(tracker.admitted, 0u);
  EXPECT_EQ(tracker.TotalRejected(), 0u);
  EXPECT_EQ(tracker.peak_queue_depth, 0u);
}

TEST(AdmissionControllerTest, DedupFoldsRedeliveriesOfTheSameKey) {
  AdmissionConfig config;
  config.dedup = true;
  config.dedup_window_rounds = 4;
  AdmissionController gate(config);
  AdmissionTracker tracker;

  // Same (client, round, attempt) twice in one burst: second copy folds.
  // A different attempt from the same client is a distinct delivery.
  const std::vector<Verdict> v =
      gate.Admit(3, {Make(7, 3, 0), Make(7, 3, 0), Make(7, 3, 1)}, &tracker);
  EXPECT_TRUE(v[0].admitted);
  EXPECT_FALSE(v[1].admitted);
  EXPECT_EQ(v[1].reason, DropoutReason::kDuplicate);
  EXPECT_TRUE(v[2].admitted);
  EXPECT_EQ(tracker.deduplicated, 1u);
  EXPECT_EQ(tracker.admitted, 2u);

  // The key is remembered across bursts within the window...
  EXPECT_FALSE(gate.Admit(5, {Make(7, 3, 0)}, &tracker)[0].admitted);
  // ...right up to now_round == round + window...
  EXPECT_FALSE(gate.Admit(7, {Make(7, 3, 0)}, &tracker)[0].admitted);
  // ...and forgotten one round past it.
  EXPECT_TRUE(gate.Admit(8, {Make(7, 3, 0)}, &tracker)[0].admitted);
}

TEST(AdmissionControllerTest, ReplayGateRejectsUploadsOlderThanMaxAge) {
  AdmissionConfig config;
  config.reject_replays = true;
  config.max_update_age = 1;
  AdmissionController gate(config);
  AdmissionTracker tracker;

  const std::vector<Verdict> v =
      gate.Admit(10, {Make(0, 10), Make(1, 9), Make(2, 8), Make(3, 0)}, &tracker);
  EXPECT_TRUE(v[0].admitted);   // fresh
  EXPECT_TRUE(v[1].admitted);   // age 1 == max_update_age
  EXPECT_FALSE(v[2].admitted);  // age 2
  EXPECT_EQ(v[2].reason, DropoutReason::kReplayed);
  EXPECT_FALSE(v[3].admitted);  // ancient
  EXPECT_EQ(v[3].reason, DropoutReason::kReplayed);
  EXPECT_EQ(tracker.replay_rejected, 2u);
}

TEST(AdmissionControllerTest, TokenBucketDepletesAndRefills) {
  AdmissionConfig config;
  config.rate_tokens_per_round = 1.0;
  config.rate_bucket_cap = 2.0;
  AdmissionController gate(config);
  AdmissionTracker tracker;

  // First sight: full bucket (2 tokens). Third delivery in the burst fails.
  const std::vector<Verdict> v0 =
      gate.Admit(4, {Make(0, 4, 0), Make(0, 4, 1), Make(0, 4, 2)}, &tracker);
  EXPECT_TRUE(v0[0].admitted);
  EXPECT_TRUE(v0[1].admitted);
  EXPECT_FALSE(v0[2].admitted);
  EXPECT_EQ(v0[2].reason, DropoutReason::kRateLimited);
  EXPECT_EQ(tracker.rate_limited, 1u);

  // One round later the refill grants one token: one in, one out.
  const std::vector<Verdict> v1 = gate.Admit(5, {Make(0, 5, 0), Make(0, 5, 1)}, &tracker);
  EXPECT_TRUE(v1[0].admitted);
  EXPECT_FALSE(v1[1].admitted);

  // A long quiet stretch refills only to the cap, not unboundedly.
  const std::vector<Verdict> v2 =
      gate.Admit(50, {Make(0, 50, 0), Make(0, 50, 1), Make(0, 50, 2)}, &tracker);
  EXPECT_TRUE(v2[0].admitted);
  EXPECT_TRUE(v2[1].admitted);
  EXPECT_FALSE(v2[2].admitted);

  // Buckets are per-client: client 1's first delivery is unaffected.
  EXPECT_TRUE(gate.Admit(50, {Make(1, 50)}, &tracker)[0].admitted);
}

TEST(AdmissionControllerTest, DuplicatesFoldBeforeSpendingTokens) {
  // Gate order matters: a deduplicated re-delivery must not drain the
  // client's token bucket.
  AdmissionConfig config;
  config.dedup = true;
  config.rate_tokens_per_round = 1.0;
  AdmissionController gate(config);

  const std::vector<Verdict> v =
      gate.Admit(2, {Make(0, 2, 0), Make(0, 2, 0), Make(0, 2, 0)}, nullptr);
  EXPECT_TRUE(v[0].admitted);  // spends the single token
  EXPECT_EQ(v[1].reason, DropoutReason::kDuplicate);
  EXPECT_EQ(v[2].reason, DropoutReason::kDuplicate);
}

TEST(AdmissionControllerTest, DropNewestShedsTheIncomingArrival) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.shed_policy = SheddingPolicy::kDropNewest;
  AdmissionController gate(config);
  AdmissionTracker tracker;

  const std::vector<Verdict> v = gate.Admit(0, {Make(0, 0), Make(1, 0), Make(2, 0)}, &tracker);
  EXPECT_TRUE(v[0].admitted);
  EXPECT_TRUE(v[1].admitted);
  EXPECT_FALSE(v[2].admitted);
  EXPECT_EQ(v[2].reason, DropoutReason::kShed);
  EXPECT_EQ(tracker.shed, 1u);
  EXPECT_EQ(tracker.peak_queue_depth, 2u);
}

TEST(AdmissionControllerTest, DropOldestEvictsTheEarliestQueued) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.shed_policy = SheddingPolicy::kDropOldest;
  AdmissionController gate(config);

  const std::vector<Verdict> v = gate.Admit(0, {Make(0, 0), Make(1, 0), Make(2, 0)}, nullptr);
  EXPECT_FALSE(v[0].admitted);
  EXPECT_EQ(v[0].reason, DropoutReason::kShed);
  EXPECT_TRUE(v[1].admitted);
  EXPECT_TRUE(v[2].admitted);
}

TEST(AdmissionControllerTest, DropStalestEvictsTheStalestQueuedEntry) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.shed_policy = SheddingPolicy::kDropStalest;
  AdmissionController gate(config);

  // Queue holds staleness {5, 1}; a fresher incoming (3) displaces the 5.
  const std::vector<Verdict> fresher =
      gate.Admit(0, {Make(0, 0, 0, 5.0), Make(1, 0, 0, 1.0), Make(2, 0, 0, 3.0)}, nullptr);
  EXPECT_FALSE(fresher[0].admitted);
  EXPECT_EQ(fresher[0].reason, DropoutReason::kShed);
  EXPECT_TRUE(fresher[1].admitted);
  EXPECT_TRUE(fresher[2].admitted);

  // An incoming arrival at least as stale as everything queued is shed itself.
  AdmissionController gate2(config);
  const std::vector<Verdict> staler =
      gate2.Admit(0, {Make(0, 0, 0, 2.0), Make(1, 0, 0, 1.0), Make(2, 0, 0, 2.0)}, nullptr);
  EXPECT_TRUE(staler[0].admitted);
  EXPECT_TRUE(staler[1].admitted);
  EXPECT_FALSE(staler[2].admitted);
}

TEST(AdmissionControllerTest, UtilityPriorityKeepsTheHighestUtilityArrivals) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.shed_policy = SheddingPolicy::kUtilityPriority;
  AdmissionController gate(config);

  // Queue holds utility {2, 5}; incoming 4 strictly beats the minimum.
  const std::vector<Verdict> beats =
      gate.Admit(0, {Make(0, 0, 0, 0.0, 2.0), Make(1, 0, 0, 0.0, 5.0), Make(2, 0, 0, 0.0, 4.0)},
                 nullptr);
  EXPECT_FALSE(beats[0].admitted);
  EXPECT_TRUE(beats[1].admitted);
  EXPECT_TRUE(beats[2].admitted);

  // An incoming arrival tying the queued minimum is shed itself.
  AdmissionController gate2(config);
  const std::vector<Verdict> ties =
      gate2.Admit(0, {Make(0, 0, 0, 0.0, 2.0), Make(1, 0, 0, 0.0, 5.0), Make(2, 0, 0, 0.0, 2.0)},
                  nullptr);
  EXPECT_TRUE(ties[0].admitted);
  EXPECT_TRUE(ties[1].admitted);
  EXPECT_FALSE(ties[2].admitted);
}

TEST(AdmissionControllerTest, StalenessDownweightScalesAdmittedWeight) {
  AdmissionConfig config;
  config.staleness_downweight = true;
  config.staleness_decay = 0.25;
  AdmissionController gate(config);

  const std::vector<Verdict> v =
      gate.Admit(0, {Make(0, 0, 0, 0.0), Make(1, 0, 0, 4.0), Make(2, 0, 0, 8.0)}, nullptr);
  EXPECT_EQ(v[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(v[1].weight, 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(v[2].weight, 1.0 / 3.0);
}

TEST(AdmissionControllerTest, SaveRestoreRoundTripIsBitExact) {
  AdmissionConfig config;
  config.dedup = true;
  config.dedup_window_rounds = 8;
  config.rate_tokens_per_round = 1.0;
  config.rate_bucket_cap = 2.0;
  AdmissionController gate(config);

  // Build cross-round state: dedup keys for two clients, partially drained
  // buckets.
  gate.Admit(10, {Make(0, 10, 0), Make(0, 10, 1), Make(3, 10, 0)}, nullptr);

  CheckpointWriter saved;
  gate.SaveState(saved);

  AdmissionController restored(config);
  CheckpointReader reader(saved.buffer());
  restored.LoadState(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());

  // Restored state re-serializes byte-identically.
  CheckpointWriter resaved;
  restored.SaveState(resaved);
  EXPECT_EQ(saved.buffer(), resaved.buffer());

  // The restored gate behaves exactly like the original: the dedup window
  // still folds the old keys, and the drained bucket still rejects.
  for (AdmissionController* g : {&gate, &restored}) {
    const std::vector<Verdict> v =
        g->Admit(11, {Make(0, 10, 0), Make(0, 11, 0), Make(0, 11, 1)}, nullptr);
    EXPECT_EQ(v[0].reason, DropoutReason::kDuplicate);
    EXPECT_TRUE(v[1].admitted);  // refill granted one token
    EXPECT_EQ(v[2].reason, DropoutReason::kRateLimited);
  }
}

}  // namespace
}  // namespace floatfl
