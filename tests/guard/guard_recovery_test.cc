// Acceptance tests for self-healing recovery (ISSUE 5 / DESIGN.md §11).
//
// Under a 20% scaled-replacement Byzantine collusion with plain FedAvg
// aggregation — the undefended worst case — a guard-on run must detect the
// collapse, roll back to a last-known-good state at least once, quarantine
// (mask) at least one technique decision, keep every round stat finite, and
// end with strictly higher final accuracy than the identically seeded
// guard-off run. Verified on the surrogate (sync + async) and real engines,
// plus thread-count invariance {1, 2, 8} with rollback + quarantine active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// Sleeper attackers: 20% of the population behaves honestly long enough to
// build a healthy trajectory (and a snapshot ring), then switches to model
// replacement against a plain-FedAvg server.
ExperimentConfig AttackedSurrogate() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 40;
  config.seed = 321;
  config.assume_no_dropouts = true;  // isolate the adversary from benign churn
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 4.0;
  config.faults.byzantine_start_round = 20;
  config.async_concurrency = 16;
  config.async_buffer = 6;
  return config;
}

GuardConfig RecoveryGuard() {
  GuardConfig guard;
  guard.enabled = true;
  guard.collapse_threshold = 0.02;
  guard.snapshot_ring = 4;
  guard.safe_mode_rounds = 4;
  return guard;
}

void ExpectAllFinite(const std::vector<double>& history) {
  for (double v : history) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GuardRecoveryTest, SyncEngineRecoversFromScaledReplacementAttack) {
  const ExperimentConfig attacked = AttackedSurrogate();
  ExperimentConfig guarded = attacked;
  guarded.guard = RecoveryGuard();

  RandomSelector off_sel(attacked.seed);
  StaticPolicy off_pol(TechniqueKind::kQuant8);
  SyncEngine off(attacked, &off_sel, &off_pol);
  const ExperimentResult unguarded = off.Run();

  // Premise: the attack fires and actually collapses the undefended run.
  EXPECT_GT(unguarded.byzantine_selected, 0u);
  const double off_peak =
      *std::max_element(unguarded.accuracy_history.begin(), unguarded.accuracy_history.end());
  EXPECT_LT(unguarded.global_accuracy, off_peak - 0.05);

  RandomSelector on_sel(guarded.seed);
  StaticPolicy on_pol(TechniqueKind::kQuant8);
  SyncEngine on(guarded, &on_sel, &on_pol);
  const ExperimentResult recovered = on.Run();

  EXPECT_GE(recovered.guard_snapshots, 1u);
  EXPECT_GE(recovered.rollbacks, 1u);
  EXPECT_GE(recovered.quarantined_actions, 1u);  // safe mode masked decisions
  EXPECT_GE(recovered.safe_mode_rounds, 1u);
  ExpectAllFinite(recovered.accuracy_history);
  EXPECT_TRUE(std::isfinite(recovered.global_accuracy));
  EXPECT_GT(recovered.global_accuracy, unguarded.global_accuracy);
}

TEST(GuardRecoveryTest, AsyncEngineRecoversFromScaledReplacementAttack) {
  ExperimentConfig attacked = AttackedSurrogate();
  // The async injector keys byzantine_start_round off the client's own
  // selection count (there is no global round); over 40 versions each client
  // flies ~6 times, so the sleepers must wake on their 3rd flight.
  attacked.faults.byzantine_start_round = 3;
  ExperimentConfig guarded = attacked;
  guarded.guard = RecoveryGuard();

  StaticPolicy off_pol(TechniqueKind::kQuant8);
  AsyncEngine off(attacked, &off_pol);
  const ExperimentResult unguarded = off.Run();
  EXPECT_GT(unguarded.byzantine_selected, 0u);

  StaticPolicy on_pol(TechniqueKind::kQuant8);
  AsyncEngine on(guarded, &on_pol);
  const ExperimentResult recovered = on.Run();

  EXPECT_GE(recovered.rollbacks, 1u);
  EXPECT_GE(recovered.quarantined_actions, 1u);
  ExpectAllFinite(recovered.accuracy_history);
  EXPECT_GT(recovered.global_accuracy, unguarded.global_accuracy);
}

RealFlConfig AttackedReal() {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 20;
  config.seed = 9;  // draws exactly 2 of 10 clients as colluding attackers
  config.num_threads = 1;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  // Real-model scaled replacement amplifies the honest delta; it takes a
  // large scale before the overshoot destroys the (easily separable) task
  // while the crafted update still passes server-side norm validation.
  config.faults.byzantine_scale = 300.0;
  config.faults.byzantine_start_round = 6;
  return config;
}

GuardConfig RealRecoveryGuard() {
  GuardConfig guard;
  guard.enabled = true;
  guard.collapse_threshold = 0.1;
  guard.snapshot_ring = 3;
  guard.safe_mode_rounds = 3;
  return guard;
}

TEST(GuardRecoveryTest, RealEngineRecoversFromScaledReplacementAttack) {
  const size_t rounds = 16;

  RealFlEngine off(AttackedReal());
  RealRoundStats off_stats;
  size_t byzantine_selected = 0;
  double off_peak = 0.0;
  for (size_t r = 0; r < rounds; ++r) {
    off_stats = off.RunRound(TechniqueKind::kQuant8);
    byzantine_selected += off_stats.byzantine_selected;
    off_peak = std::max(off_peak, off_stats.test_accuracy);
  }
  // Premise: attackers were selected and model replacement hurt.
  EXPECT_GT(byzantine_selected, 0u);
  EXPECT_LT(off_stats.test_accuracy, off_peak);

  RealFlConfig guarded_config = AttackedReal();
  guarded_config.guard = RealRecoveryGuard();
  RealFlEngine on(guarded_config);
  RealRoundStats on_stats;
  size_t rollback_rounds = 0;
  for (size_t r = 0; r < rounds; ++r) {
    on_stats = on.RunRound(TechniqueKind::kQuant8);
    EXPECT_TRUE(std::isfinite(on_stats.test_accuracy));
    EXPECT_TRUE(std::isfinite(on_stats.test_loss));
    EXPECT_TRUE(std::isfinite(on_stats.mean_upload_bytes));
    if (on_stats.rolled_back) {
      ++rollback_rounds;
    }
  }
  EXPECT_GE(rollback_rounds, 1u);
  EXPECT_GE(on.guard().tracker().rollbacks, 1u);
  EXPECT_GE(on.guard().tracker().masked_actions, 1u);  // safe mode quarantine
  for (float p : on.global_model().GetParameters()) {
    EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_GT(on_stats.test_accuracy, off_stats.test_accuracy);
}

// Per-technique failure attribution must open a quarantine window (not just
// safe mode): a crash-heavy run with one fixed technique accumulates an
// attributable failure rate above the threshold and trips the cooldown.
TEST(GuardRecoveryTest, FailureAttributionOpensQuarantineWindows) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 30;
  config.seed = 13;
  config.faults.crash_prob = 0.5;
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.0;  // isolate attribution from rollback
  config.guard.quarantine_min_trials = 5;
  config.guard.quarantine_failure_rate = 0.25;
  config.guard.quarantine_cooldown_rounds = 4;

  RandomSelector selector(config.seed);
  StaticPolicy policy(TechniqueKind::kQuant8);
  SyncEngine engine(config, &selector, &policy);
  const ExperimentResult result = engine.Run();

  EXPECT_GE(result.quarantine_openings, 1u);
  EXPECT_GE(result.quarantined_actions, 1u);  // blocked decisions masked
  // The technique's attribution shows up in the per-technique breakdown too.
  const auto it = result.per_technique_dropouts.find(TechniqueKind::kQuant8);
  ASSERT_NE(it, result.per_technique_dropouts.end());
  EXPECT_GT(it->second.at(static_cast<uint32_t>(DropoutReason::kCrashed)), 0u);
}

// --- Thread-count invariance with rollback + quarantine active -------------

TEST(GuardRecoveryTest, SyncRecoveryIsThreadCountInvariant) {
  ExperimentResult reference;
  bool have_reference = false;
  for (size_t threads : {1u, 2u, 8u}) {
    ExperimentConfig config = AttackedSurrogate();
    config.guard = RecoveryGuard();
    config.guard.quarantine_min_trials = 5;
    config.guard.quarantine_failure_rate = 0.25;
    config.faults.crash_prob = 0.3;  // quarantine pressure on top of the attack
    config.assume_no_dropouts = false;
    config.num_threads = threads;
    RandomSelector selector(config.seed);
    StaticPolicy policy(TechniqueKind::kQuant8);
    SyncEngine engine(config, &selector, &policy);
    const ExperimentResult r = engine.Run();
    EXPECT_GE(r.rollbacks, 1u) << "num_threads=" << threads;
    EXPECT_GE(r.quarantined_actions, 1u) << "num_threads=" << threads;
    if (!have_reference) {
      reference = r;
      have_reference = true;
    } else {
      EXPECT_EQ(r.accuracy_history, reference.accuracy_history);
      EXPECT_EQ(r.rollbacks, reference.rollbacks);
      EXPECT_EQ(r.guard_snapshots, reference.guard_snapshots);
      EXPECT_EQ(r.watchdog_triggers, reference.watchdog_triggers);
      EXPECT_EQ(r.quarantined_actions, reference.quarantined_actions);
      EXPECT_EQ(r.quarantine_openings, reference.quarantine_openings);
      EXPECT_EQ(r.safe_mode_rounds, reference.safe_mode_rounds);
      EXPECT_EQ(r.global_accuracy, reference.global_accuracy);
    }
  }
}

TEST(GuardRecoveryTest, RealRecoveryIsThreadCountInvariant) {
  std::vector<float> reference;
  size_t reference_rollbacks = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    RealFlConfig config = AttackedReal();
    config.guard = RealRecoveryGuard();
    config.num_threads = threads;
    RealFlEngine engine(config);
    for (size_t r = 0; r < 12; ++r) {
      engine.RunRound(TechniqueKind::kQuant8);
    }
    EXPECT_GE(engine.guard().tracker().rollbacks, 1u) << "num_threads=" << threads;
    if (reference.empty()) {
      reference = engine.global_model().GetParameters();
      reference_rollbacks = engine.guard().tracker().rollbacks;
    } else {
      EXPECT_EQ(engine.global_model().GetParameters(), reference)
          << "diverged at num_threads=" << threads;
      EXPECT_EQ(engine.guard().tracker().rollbacks, reference_rollbacks);
    }
  }
}

// --- Coverage gate on the sync tree (DESIGN.md §13) ------------------------

// Coverage is the fraction of the round's updates that reached the root, so
// at min_snapshot_coverage 1.0 a round that lost any update in the tree is
// never banked. Salvaged partials and admitted duplicates enter the tree
// beside the completed uploads, and a Byzantine edge's out-of-band partial
// is rejected at the root, so every way of losing an update is on.
TEST(GuardRecoveryTest, SyncTreeNeverSnapshotsARoundThatLostAnUpdate) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.seed = 2718;
  config.faults.crash_prob = 0.2;
  config.faults.duplicate_prob = 0.3;
  config.salvage.enabled = true;
  config.topology.num_edges = 3;
  config.topology.edge_link_loss_prob = 0.1;
  config.topology.edge_max_retries = 1;
  config.topology.edge_overcommit = 1.5;
  config.topology.edge_byzantine_mode = ByzantineMode::kScaledReplacement;
  config.topology.edge_byzantine_fraction = 0.3;
  config.guard.enabled = true;
  config.guard.min_snapshot_coverage = 1.0;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  ExperimentResult before = engine.Snapshot();
  size_t lossy_rounds = 0;
  for (size_t round = 0; round < config.rounds; ++round) {
    engine.RunRound(round);
    const ExperimentResult after = engine.Snapshot();
    if (after.partials_lost > before.partials_lost || after.late_partials > before.late_partials ||
        after.tampered_rejections > before.tampered_rejections) {
      ++lossy_rounds;
      EXPECT_EQ(after.guard_snapshots, before.guard_snapshots) << "round " << round;
    }
    before = after;
  }
  // Premise: the tree lost updates in some rounds and the guard banked others.
  EXPECT_GT(lossy_rounds, 0u);
  EXPECT_LT(lossy_rounds, config.rounds);
  EXPECT_GT(before.guard_snapshots, 0u);
}

}  // namespace
}  // namespace floatfl
