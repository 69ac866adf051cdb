// Strict no-op guarantee (DESIGN.md §13): a TopologyConfig with
// num_edges == 0 — the default, and equally one with every other knob
// cranked — must leave the engines byte-identical to a pre-topology run:
// same results, same serialized state, every topology counter zero. This is
// what keeps all pre-existing goldens valid with the tree code compiled in.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// Every knob away from its default except num_edges: if any engine path
// consults a topology knob without checking enabled() first, this diverges.
TopologyConfig StarButTweaked() {
  TopologyConfig topology;
  topology.num_edges = 0;
  topology.failover = false;
  topology.edge_retry_cooldown_rounds = 9;
  topology.edge_overcommit = 2.0;
  topology.edge_crash_prob = 0.9;
  topology.edge_blackout_prob = 0.5;
  topology.edge_flaky_fraction = 1.0;
  topology.edge_flaky_enter_prob = 0.7;
  topology.edge_flaky_exit_prob = 0.1;
  topology.edge_flaky_crash_prob = 0.8;
  topology.edge_byzantine_mode = ByzantineMode::kScaledReplacement;
  topology.edge_byzantine_fraction = 1.0;
  topology.edge_byzantine_scale = 10.0;
  topology.edge_link_loss_prob = 0.5;
  topology.edge_link_blackout_prob = 0.3;
  topology.edge_chunk_mb = 0.25;
  topology.edge_max_retries = 1;
  topology.edge_aggregator.kind = AggregatorKind::kMedian;
  topology.edge_adaptive_deadline.enabled = true;
  topology.edge_adaptive_deadline.headroom = 1.0;
  return topology;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 20;
  config.seed = 77;
  config.faults.crash_prob = 0.1;  // exercise dropout + Observe paths
  config.async_concurrency = 12;
  config.async_buffer = 4;
  return config;
}

void ExpectZeroTopologyCounters(const ExperimentResult& r) {
  EXPECT_EQ(r.edge_crashes, 0u);
  EXPECT_EQ(r.edge_blackouts, 0u);
  EXPECT_EQ(r.reparented_clients, 0u);
  EXPECT_EQ(r.orphaned_clients, 0u);
  EXPECT_EQ(r.partials_forwarded, 0u);
  EXPECT_EQ(r.partials_lost, 0u);
  EXPECT_EQ(r.tampered_partials, 0u);
  EXPECT_EQ(r.tampered_rejections, 0u);
  EXPECT_EQ(r.late_partials, 0u);
  EXPECT_EQ(r.tier1_wire_mb, 0.0);
  EXPECT_EQ(r.tier1_retransmitted_mb, 0.0);
  EXPECT_EQ(r.dropout_breakdown.edge_orphaned, 0u);
}

TEST(TopologyNoOpTest, SyncEngineStarTopologyIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.topology = StarButTweaked();

  RandomSelector sel_a(plain.seed);
  StaticPolicy pol_a(TechniqueKind::kQuant8);
  SyncEngine a(plain, &sel_a, &pol_a);
  const ExperimentResult ra = a.Run();

  RandomSelector sel_b(tweaked.seed);
  StaticPolicy pol_b(TechniqueKind::kQuant8);
  SyncEngine b(tweaked, &sel_b, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  EXPECT_EQ(ra.wall_clock_hours, rb.wall_clock_hours);
  ExpectZeroTopologyCounters(ra);
  ExpectZeroTopologyCounters(rb);

  // The serialized engine state (tree section included) is byte-identical:
  // a disabled tree always serializes the same all-default layout.
  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(TopologyNoOpTest, AsyncEngineAcceptsStarTopologyConfig) {
  // Async keeps star semantics: it refuses an *enabled* tree but must run
  // byte-identically under a disabled-but-tweaked one.
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.topology = StarButTweaked();

  StaticPolicy pol_a(TechniqueKind::kPrune50);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kPrune50);
  AsyncEngine b(tweaked, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  ExpectZeroTopologyCounters(ra);
  ExpectZeroTopologyCounters(rb);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(TopologyNoOpDeathTest, AsyncEngineRefusesEnabledTree) {
  ExperimentConfig config = SmallExperiment();
  config.topology.num_edges = 4;
  StaticPolicy policy(TechniqueKind::kNone);
  EXPECT_DEATH(AsyncEngine(config, &policy), "async engine does not support");
}

TEST(TopologyNoOpTest, RealEngineStarTopologyIsByteIdentical) {
  RealFlConfig plain;
  plain.num_clients = 8;
  plain.clients_per_round = 4;
  plain.num_classes = 3;
  plain.input_dim = 8;
  plain.hidden_dims = {12};
  plain.test_samples_per_class = 10;
  plain.seed = 5;
  plain.num_threads = 1;
  plain.faults.crash_prob = 0.2;
  RealFlConfig tweaked = plain;
  tweaked.topology = StarButTweaked();

  RealFlEngine a(plain);
  RealFlEngine b(tweaked);
  RealRoundStats sa;
  RealRoundStats sb;
  for (size_t r = 0; r < 5; ++r) {
    sa = a.RunRound(TechniqueKind::kQuant8);
    sb = b.RunRound(TechniqueKind::kQuant8);
  }
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  for (const RealRoundStats* s : {&sa, &sb}) {
    EXPECT_EQ(s->orphaned, 0u);
    EXPECT_EQ(s->reparented, 0u);
    EXPECT_EQ(s->partials_lost, 0u);
    EXPECT_EQ(s->tampered_partials, 0u);
    EXPECT_EQ(s->tampered_rejections, 0u);
  }
  EXPECT_EQ(a.topology_tracker().partials_forwarded, 0u);
  EXPECT_EQ(b.topology_tracker().partials_forwarded, 0u);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

}  // namespace
}  // namespace floatfl
