// Failover acceptance (DESIGN.md §13, the PR's headline property): under
// deterministic edge crashes on a two-tier tree, reparenting orphans to
// sibling edges must strictly beat orphaning them — more completed client
// updates and better final quality — on both the surrogate sync engine and
// the real-training engine.
#include <gtest/gtest.h>

#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

ExperimentConfig CrashyTree(bool failover) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 12;
  config.rounds = 40;
  config.seed = 4242;
  config.topology.num_edges = 4;
  config.topology.failover = failover;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_crash_prob = 0.2;
  return config;
}

TEST(TopologyFailoverTest, SyncFailoverBeatsOrphaningUnderEdgeCrashes) {
  RandomSelector sel_on(4242);
  StaticPolicy pol_on(TechniqueKind::kQuant8);
  SyncEngine on(CrashyTree(true), &sel_on, &pol_on);
  const ExperimentResult with_failover = on.Run();

  RandomSelector sel_off(4242);
  StaticPolicy pol_off(TechniqueKind::kQuant8);
  SyncEngine off(CrashyTree(false), &sel_off, &pol_off);
  const ExperimentResult without = off.Run();

  // The fault process is identical (same keyed draws) on both arms...
  EXPECT_EQ(with_failover.edge_crashes, without.edge_crashes);
  EXPECT_GT(with_failover.edge_crashes, 0u);
  // ...but failover converts would-be orphans into reparented clients.
  // (Clients can still orphan with failover on — when a crash cascade takes
  // every edge down at once — just far fewer of them.)
  EXPECT_GT(with_failover.reparented_clients, 0u);
  EXPECT_LT(with_failover.orphaned_clients, without.orphaned_clients);
  EXPECT_GT(without.orphaned_clients, 0u);
  EXPECT_EQ(without.reparented_clients, 0u);
  EXPECT_EQ(without.dropout_breakdown.edge_orphaned, without.orphaned_clients);

  // The headline: strictly more completed client updates, strictly better
  // final quality.
  EXPECT_GT(with_failover.total_completed, without.total_completed);
  EXPECT_GT(with_failover.global_accuracy, without.global_accuracy);
}

TEST(TopologyFailoverTest, SyncOrphanReplayNeverReachesTheRoot) {
  // Every selected client's last upload is replayed to an ungated server,
  // orphaned clients included. An orphan has no live edge, so its admitted
  // replay is dropped at the edge tier instead of indexing past the groups.
  ExperimentConfig config = CrashyTree(false);
  config.faults.replay_prob = 1.0;
  RandomSelector sel(config.seed);
  StaticPolicy pol(TechniqueKind::kQuant8);
  SyncEngine engine(config, &sel, &pol);
  const ExperimentResult result = engine.Run();
  EXPECT_GT(result.orphaned_clients, 0u);
  EXPECT_GT(result.redundant_mb, 0.0);
  EXPECT_EQ(result.accuracy_history.size(), config.rounds);
}

TEST(TopologyFailoverTest, SyncBackupThatCoversAnOrphanTakesOverItsSlot) {
  // With speculation, a backup on a live edge can deliver for a primary
  // whose edges are all down. The slot is then covered, not orphaned, so the
  // tree's orphan count stays the number of slots that ended orphaned.
  ExperimentConfig config = CrashyTree(false);
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.5;
  RandomSelector sel(config.seed);
  SyncEngine engine(config, &sel, nullptr);
  const ExperimentResult result = engine.Run();
  EXPECT_GT(result.backups_won, 0u);
  EXPECT_GT(result.orphaned_clients, 0u);
  EXPECT_EQ(result.dropout_breakdown.edge_orphaned, result.orphaned_clients);
}

RealFlConfig RealCrashyTree(bool failover) {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 8;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 20;
  config.seed = 9;
  config.num_threads = 1;
  config.topology.num_edges = 3;
  config.topology.failover = failover;
  config.topology.edge_retry_cooldown_rounds = 1;
  config.topology.edge_crash_prob = 0.2;
  return config;
}

TEST(TopologyFailoverTest, RealFailoverBeatsOrphaningUnderEdgeCrashes) {
  const size_t rounds = 12;
  RealFlEngine on(RealCrashyTree(true));
  RealFlEngine off(RealCrashyTree(false));
  size_t updates_on = 0;
  size_t updates_off = 0;
  RealRoundStats last_on;
  RealRoundStats last_off;
  for (size_t r = 0; r < rounds; ++r) {
    last_on = on.RunRound(TechniqueKind::kNone);
    last_off = off.RunRound(TechniqueKind::kNone);
    updates_on += last_on.participants;
    updates_off += last_off.participants;
  }

  // Same edge weather on both arms; failover turns orphans into fosters.
  EXPECT_EQ(on.topology_tracker().edge_crashes, off.topology_tracker().edge_crashes);
  EXPECT_GT(on.topology_tracker().edge_crashes, 0u);
  EXPECT_GT(on.topology_tracker().reparented_clients, 0u);
  EXPECT_EQ(on.topology_tracker().orphaned_clients, 0u);
  EXPECT_GT(off.topology_tracker().orphaned_clients, 0u);

  EXPECT_GT(updates_on, updates_off);
  // The synthetic task saturates accuracy quickly, so the strict quality
  // comparison is on test loss (never worse on accuracy).
  EXPECT_GE(last_on.test_accuracy, last_off.test_accuracy);
  EXPECT_LT(last_on.test_loss, last_off.test_loss);
}

}  // namespace
}  // namespace floatfl
