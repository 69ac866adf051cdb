// Overload acceptance criteria (DESIGN.md §15): under a duplicate + replay
// + stampede storm, turning the admission gate on strictly improves final
// accuracy and strictly cuts the redundant work the server burns; idempotent
// admission folds at-least-once duplicates back to an exactly-once
// trajectory, bit-identical to the duplicate-free run; and the whole layer
// is thread-count invariant, because every gate decision is sequential
// bookkeeping over keyed deterministic draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// A heavy ingestion storm: nearly every upload gets re-delivered or
// replayed, and stampede episodes quadruple the draw slots.
FaultConfig Storm() {
  FaultConfig faults;
  faults.duplicate_prob = 0.3;
  faults.replay_prob = 0.5;
  faults.reorder_prob = 0.3;
  faults.stampede_prob = 0.4;
  faults.stampede_factor = 4;
  return faults;
}

// The gate aimed at a round-synchronous storm (sync/real engines): fresh
// uploads arrive at age 0, so the age gate can refuse anything older
// outright, and the dedup window folds re-deliveries.
AdmissionConfig Gate() {
  AdmissionConfig admission;
  admission.dedup = true;
  admission.dedup_window_rounds = 4;
  admission.reject_replays = true;
  admission.max_update_age = 0;
  admission.queue_capacity = 24;
  return admission;
}

// The async variant: legitimate originals retire up to async_max_staleness
// versions old, so the age gate must tolerate that and the dedup window must
// out-span it (every replay of a logged upload then folds onto its key; only
// beyond-window replays are old enough for the age gate).
AdmissionConfig AsyncGate() {
  AdmissionConfig admission;
  admission.dedup = true;
  admission.dedup_window_rounds = 12;
  admission.reject_replays = true;
  admission.max_update_age = 10;
  admission.queue_capacity = 24;
  return admission;
}

ExperimentConfig StormExperiment() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  // Long enough that both runs approach their accuracy ceilings: the stale
  // replays an ungated server keeps aggregating depress the ceiling, which
  // is where the damage shows (early on they merely look like extra
  // participation).
  config.rounds = 120;
  config.seed = 91;
  config.model = ModelId::kShuffleNetV2;
  config.faults = Storm();
  config.async_concurrency = 16;
  config.async_buffer = 4;
  return config;
}

TEST(AdmissionOverloadTest, SyncGateBeatsUngatedUnderStorm) {
  const ExperimentConfig off = StormExperiment();
  ExperimentConfig on = off;
  on.admission = Gate();

  RandomSelector sel_off(off.seed);
  StaticPolicy pol_off(TechniqueKind::kQuant8);
  SyncEngine ungated(off, &sel_off, &pol_off);
  const ExperimentResult r_off = ungated.Run();

  RandomSelector sel_on(on.seed);
  StaticPolicy pol_on(TechniqueKind::kQuant8);
  SyncEngine gated(on, &sel_on, &pol_on);
  const ExperimentResult r_on = gated.Run();

  // The storm must actually land on the ungated server.
  EXPECT_GT(r_off.redundant_mb, 0.0);
  // Strictly better model, strictly less wasted work.
  EXPECT_GT(r_on.global_accuracy, r_off.global_accuracy);
  EXPECT_LT(r_on.wasted.comm_hours, r_off.wasted.comm_hours);
  // The gate turned the redundant deliveries away at the doorstep.
  EXPECT_EQ(r_on.redundant_mb, 0.0);
  EXPECT_GT(r_on.admission_deduplicated + r_on.admission_replay_rejected, 0u);
  EXPECT_EQ(r_on.dropout_breakdown.duplicate, r_on.admission_deduplicated);
  EXPECT_EQ(r_on.dropout_breakdown.replayed, r_on.admission_replay_rejected);
}

TEST(AdmissionOverloadTest, AsyncGateBeatsUngatedUnderStorm) {
  const ExperimentConfig off = StormExperiment();
  ExperimentConfig on = off;
  on.admission = AsyncGate();

  StaticPolicy pol_off(TechniqueKind::kQuant8);
  AsyncEngine ungated(off, &pol_off);
  const ExperimentResult r_off = ungated.Run();

  StaticPolicy pol_on(TechniqueKind::kQuant8);
  AsyncEngine gated(on, &pol_on);
  const ExperimentResult r_on = gated.Run();

  EXPECT_GT(r_off.redundant_mb, 0.0);
  EXPECT_GT(r_on.global_accuracy, r_off.global_accuracy);
  EXPECT_LT(r_on.wasted.comm_hours, r_off.wasted.comm_hours);
  EXPECT_EQ(r_on.redundant_mb, 0.0);
  EXPECT_GT(r_on.admission_deduplicated + r_on.admission_replay_rejected, 0u);
}

TEST(AdmissionOverloadTest, RealGateBeatsUngatedUnderStorm) {
  // A hard enough task that accuracy is still climbing when the run ends —
  // on a saturating toy problem both runs hit the ceiling and the replay
  // drag would be invisible.
  RealFlConfig off;
  off.num_clients = 10;
  off.clients_per_round = 5;
  off.num_classes = 5;
  off.input_dim = 10;
  off.class_separation = 1.0;
  off.hidden_dims = {16};
  off.test_samples_per_class = 20;
  off.seed = 17;
  off.num_threads = 1;
  off.faults = Storm();
  off.faults.replay_prob = 0.8;
  off.faults.stampede_factor = 6;
  RealFlConfig on = off;
  on.admission = Gate();

  RealFlEngine ungated(off);
  RealFlEngine gated(on);
  double waste_off = 0.0;
  double waste_on = 0.0;
  RealRoundStats s_off;
  RealRoundStats s_on;
  for (size_t r = 0; r < 8; ++r) {
    s_off = ungated.RunRound(TechniqueKind::kNone);
    s_on = gated.RunRound(TechniqueKind::kNone);
    waste_off += s_off.redundant_upload_mb;
    waste_on += s_on.redundant_upload_mb;
  }
  EXPECT_GT(waste_off, 0.0);
  EXPECT_EQ(waste_on, 0.0);
  EXPECT_GT(s_on.test_accuracy, s_off.test_accuracy);
  EXPECT_GT(gated.admission_tracker().TotalRejected(), 0u);

  // RealRoundStats::peak_queue_depth is per round. Behind a queue too deep
  // to shed, crashes and duplicates make the bursts differ in size, and a
  // small burst after a large one must report its own peak, not the run's.
  RealFlConfig uneven = off;
  uneven.num_clients = 40;
  uneven.clients_per_round = 10;
  uneven.faults = FaultConfig();
  uneven.faults.duplicate_prob = 0.3;
  uneven.faults.crash_prob = 0.3;
  uneven.admission = AdmissionConfig();
  uneven.admission.queue_capacity = 64;
  RealFlEngine deep(uneven);
  size_t largest = 0;
  bool smaller_after_larger = false;
  for (size_t r = 0; r < 4; ++r) {
    const RealRoundStats s = deep.RunRound(TechniqueKind::kNone);
    // The gate drains every burst, so a burst's peak is what it admitted.
    EXPECT_EQ(s.peak_queue_depth, s.admitted) << "round " << r;
    smaller_after_larger = smaller_after_larger || s.admitted < largest;
    largest = std::max(largest, s.admitted);
  }
  EXPECT_TRUE(smaller_after_larger);
  EXPECT_EQ(deep.admission_tracker().peak_queue_depth, largest);
}

TEST(AdmissionOverloadTest, RealReplayAggregatesTheLoggedUploadNotThisRounds) {
  // One client, selected every round, whose last accepted upload is replayed
  // every round to an ungated server. Round 1 must average the fresh upload
  // with the round-0 upload the replay re-delivers, not with itself.
  RealFlConfig twin;
  twin.num_clients = 1;
  twin.clients_per_round = 1;
  twin.num_classes = 3;
  twin.input_dim = 8;
  twin.hidden_dims = {12};
  twin.test_samples_per_class = 10;
  twin.seed = 29;
  twin.num_threads = 1;
  RealFlConfig replaying = twin;
  replaying.faults.replay_prob = 1.0;

  RealFlEngine plain(twin);
  RealFlEngine replayed(replaying);
  plain.RunRound(TechniqueKind::kNone);
  replayed.RunRound(TechniqueKind::kNone);
  const std::vector<float> round0 = plain.global_model().GetParameters();
  ASSERT_EQ(replayed.global_model().GetParameters(), round0);  // nothing logged to replay yet

  plain.RunRound(TechniqueKind::kNone);
  const RealRoundStats stats = replayed.RunRound(TechniqueKind::kNone);
  EXPECT_GT(stats.redundant_upload_mb, 0.0);
  const std::vector<float> twin1 = plain.global_model().GetParameters();
  const std::vector<float> got = replayed.global_model().GetParameters();
  ASSERT_EQ(got.size(), twin1.size());
  EXPECT_NE(got, twin1);
  for (size_t j = 0; j < got.size(); ++j) {
    const float mean = 0.5f * (twin1[j] + round0[j]);
    EXPECT_NEAR(got[j], mean, 1e-5f * (1.0f + std::fabs(mean))) << "parameter " << j;
  }
}

TEST(AdmissionOverloadTest, SyncDedupFoldsDuplicatesToExactlyOnce) {
  // At-least-once delivery + idempotent admission == exactly-once: the model
  // trajectory is bit-identical to a run with no duplicates at all.
  ExperimentConfig clean = StormExperiment();
  clean.faults = FaultConfig{};
  ExperimentConfig noisy = clean;
  noisy.faults.duplicate_prob = 1.0;
  noisy.admission.dedup = true;

  RandomSelector sel_a(clean.seed);
  StaticPolicy pol_a(TechniqueKind::kQuant8);
  SyncEngine a(clean, &sel_a, &pol_a);
  const ExperimentResult ra = a.Run();

  RandomSelector sel_b(noisy.seed);
  StaticPolicy pol_b(TechniqueKind::kQuant8);
  SyncEngine b(noisy, &sel_b, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_GT(rb.admission_deduplicated, 0u);  // duplicates really arrived
  EXPECT_EQ(rb.redundant_mb, 0.0);           // and none was re-processed
  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.wall_clock_hours, rb.wall_clock_hours);
}

TEST(AdmissionOverloadTest, AsyncDedupFoldsDuplicatesToExactlyOnce) {
  ExperimentConfig clean = StormExperiment();
  clean.faults = FaultConfig{};
  ExperimentConfig noisy = clean;
  noisy.faults.duplicate_prob = 1.0;
  noisy.admission.dedup = true;

  StaticPolicy pol_a(TechniqueKind::kQuant8);
  AsyncEngine a(clean, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kQuant8);
  AsyncEngine b(noisy, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_GT(rb.admission_deduplicated, 0u);
  EXPECT_EQ(rb.redundant_mb, 0.0);
  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
}

TEST(AdmissionOverloadTest, SyncStormWithGateIsThreadCountInvariant) {
  ExperimentResult reference;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    ExperimentConfig config = StormExperiment();
    config.admission = Gate();
    config.num_threads = threads;
    RandomSelector selector(config.seed);
    StaticPolicy policy(TechniqueKind::kQuant8);
    SyncEngine engine(config, &selector, &policy);
    const ExperimentResult result = engine.Run();
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference = result;
      reference_state = w.buffer();
      EXPECT_GT(result.admission_deduplicated + result.admission_replay_rejected, 0u);
      continue;
    }
    EXPECT_EQ(result.accuracy_history, reference.accuracy_history) << threads << " threads";
    EXPECT_EQ(result.admission_admitted, reference.admission_admitted);
    EXPECT_EQ(result.admission_deduplicated, reference.admission_deduplicated);
    EXPECT_EQ(result.admission_shed, reference.admission_shed);
    EXPECT_EQ(result.admission_replay_rejected, reference.admission_replay_rejected);
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

TEST(AdmissionOverloadTest, AsyncStormWithGateIsThreadCountInvariant) {
  ExperimentResult reference;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    ExperimentConfig config = StormExperiment();
    config.admission = AsyncGate();
    config.num_threads = threads;
    StaticPolicy policy(TechniqueKind::kQuant8);
    AsyncEngine engine(config, &policy);
    const ExperimentResult result = engine.Run();
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference = result;
      reference_state = w.buffer();
      EXPECT_GT(result.admission_deduplicated + result.admission_replay_rejected, 0u);
      continue;
    }
    EXPECT_EQ(result.accuracy_history, reference.accuracy_history) << threads << " threads";
    EXPECT_EQ(result.admission_admitted, reference.admission_admitted);
    EXPECT_EQ(result.admission_deduplicated, reference.admission_deduplicated);
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

TEST(AdmissionOverloadTest, RealStormWithGateIsThreadCountInvariant) {
  std::vector<float> reference_params;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    RealFlConfig config;
    config.num_clients = 9;
    config.clients_per_round = 6;
    config.num_classes = 3;
    config.input_dim = 8;
    config.hidden_dims = {12};
    config.test_samples_per_class = 10;
    config.seed = 23;
    config.num_threads = threads;
    config.faults = Storm();
    config.admission = Gate();
    RealFlEngine engine(config);
    for (size_t r = 0; r < 5; ++r) {
      engine.RunRound(TechniqueKind::kNone);
    }
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference_params = engine.global_model().GetParameters();
      reference_state = w.buffer();
      EXPECT_GT(engine.admission_tracker().TotalRejected(), 0u);
      continue;
    }
    EXPECT_EQ(engine.global_model().GetParameters(), reference_params) << threads << " threads";
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

}  // namespace
}  // namespace floatfl
