// Thread-count invariance with the tree active (DESIGN.md §13): edge
// faults, failover, Byzantine edges and the lossy inter-tier link are all
// decided by (seed, round, edge)-keyed draws in sequential phases, so the
// same experiment at 1, 2 and 8 threads must produce bit-identical results
// and byte-identical serialized state.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// Every topology mechanism on at once: crashes (with cooldown + failover),
// blackouts, flaky episodes, a Byzantine edge, a lossy uplink, and the
// root's over-selection close.
TopologyConfig BusyTree() {
  TopologyConfig topology;
  topology.num_edges = 4;
  topology.edge_retry_cooldown_rounds = 2;
  topology.edge_overcommit = 1.25;
  topology.edge_crash_prob = 0.15;
  topology.edge_blackout_prob = 0.1;
  topology.edge_flaky_fraction = 0.5;
  topology.edge_flaky_enter_prob = 0.3;
  topology.edge_flaky_exit_prob = 0.4;
  topology.edge_flaky_crash_prob = 0.3;
  topology.edge_byzantine_mode = ByzantineMode::kScaledReplacement;
  topology.edge_byzantine_fraction = 0.3;
  topology.edge_link_loss_prob = 0.1;
  return topology;
}

ExperimentConfig TreeExperiment(size_t num_threads) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.rounds = 25;
  config.seed = 321;
  config.num_threads = num_threads;
  config.faults.crash_prob = 0.1;  // client faults interleave with edge faults
  config.topology = BusyTree();
  return config;
}

TEST(TopologyInvarianceTest, SyncEngineIsThreadCountInvariantWithTreeActive) {
  ExperimentResult reference;
  std::string reference_state;
  for (const size_t threads : {1u, 2u, 8u}) {
    RandomSelector selector(321);
    StaticPolicy policy(TechniqueKind::kQuant8);
    SyncEngine engine(TreeExperiment(threads), &selector, &policy);
    const ExperimentResult result = engine.Run();
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference = result;
      reference_state = w.buffer();
      // The run must actually exercise the tree paths it claims to cover.
      EXPECT_GT(result.edge_crashes + result.edge_blackouts, 0u);
      EXPECT_GT(result.reparented_clients, 0u);
      EXPECT_GT(result.partials_forwarded, 0u);
      continue;
    }
    EXPECT_EQ(result.accuracy_history, reference.accuracy_history) << threads << " threads";
    EXPECT_EQ(result.global_accuracy, reference.global_accuracy);
    EXPECT_EQ(result.total_completed, reference.total_completed);
    EXPECT_EQ(result.wall_clock_hours, reference.wall_clock_hours);
    EXPECT_EQ(result.edge_crashes, reference.edge_crashes);
    EXPECT_EQ(result.reparented_clients, reference.reparented_clients);
    EXPECT_EQ(result.orphaned_clients, reference.orphaned_clients);
    EXPECT_EQ(result.partials_forwarded, reference.partials_forwarded);
    EXPECT_EQ(result.partials_lost, reference.partials_lost);
    EXPECT_EQ(result.tampered_partials, reference.tampered_partials);
    EXPECT_EQ(result.late_partials, reference.late_partials);
    EXPECT_EQ(result.tier1_wire_mb, reference.tier1_wire_mb);
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

TEST(TopologyInvarianceTest, RealEngineIsThreadCountInvariantWithTreeActive) {
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
    config.seed = 13;
    config.num_threads = threads;
    config.topology = BusyTree();
    config.topology.num_edges = 3;

    RealFlEngine engine(config);
    for (size_t r = 0; r < 8; ++r) {
      engine.RunRound(TechniqueKind::kQuant8);
    }
    CheckpointWriter w;
    engine.SaveState(w);
    if (threads == 1) {
      reference_params = engine.global_model().GetParameters();
      reference_state = w.buffer();
      EXPECT_GT(engine.topology_tracker().edge_crashes +
                    engine.topology_tracker().edge_blackouts,
                0u);
      EXPECT_GT(engine.topology_tracker().reparented_clients, 0u);
      continue;
    }
    EXPECT_EQ(engine.global_model().GetParameters(), reference_params)
        << threads << " threads";
    EXPECT_EQ(w.buffer(), reference_state) << threads << " threads";
  }
}

}  // namespace
}  // namespace floatfl
