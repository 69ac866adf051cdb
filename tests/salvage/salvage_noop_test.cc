// Strict no-op guarantee (DESIGN.md §16): a disabled SalvageConfig — the
// default, and equally a disabled config with every passive knob cranked —
// must leave the engines byte-identical: same results, same serialized
// state, every salvage and speculation counter zero. The interruptions the
// layer would salvage (crashes, deadline misses, lost transfers) are armed
// in the config precisely so the disabled layer is shown ignoring them.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// A disabled salvage layer with every passive knob away from its default:
// if any code path consults a knob without checking the switches first,
// this diverges from the all-default run.
SalvageConfig DisarmedButTweaked() {
  SalvageConfig salvage;
  salvage.min_progress = 0.6;
  salvage.speculation_margin = 0.3;
  salvage.max_backup_fraction = 0.9;
  EXPECT_FALSE(salvage.active());
  return salvage;
}

// Crashes and a lossy transport: plenty of interruptions the disabled layer
// must leave on the floor, bit-for-bit.
ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 20;
  config.seed = 77;
  config.model = ModelId::kShuffleNetV2;
  config.faults.crash_prob = 0.15;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 1;
  config.async_concurrency = 12;
  config.async_buffer = 4;
  return config;
}

void ExpectZeroSalvageCounters(const ExperimentResult& r) {
  EXPECT_EQ(r.partials_salvaged, 0u);
  EXPECT_EQ(r.partials_below_min, 0u);
  EXPECT_EQ(r.partials_rejected, 0u);
  EXPECT_EQ(r.salvaged_steps, 0u);
  EXPECT_EQ(r.salvaged_progress_mb, 0.0);
  EXPECT_EQ(r.backups_planned, 0u);
  EXPECT_EQ(r.backups_won, 0u);
  EXPECT_EQ(r.backups_redundant, 0u);
  EXPECT_EQ(r.deadline_misses_averted, 0u);
  EXPECT_EQ(r.dropout_breakdown.backup_covered, 0u);
  EXPECT_EQ(r.dropout_breakdown.backup_redundant, 0u);
}

TEST(SalvageNoOpTest, SyncEngineDisabledSalvageIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.salvage = DisarmedButTweaked();

  RandomSelector sel_a(plain.seed);
  StaticPolicy pol_a(TechniqueKind::kQuant8);
  SyncEngine a(plain, &sel_a, &pol_a);
  const ExperimentResult ra = a.Run();

  RandomSelector sel_b(tweaked.seed);
  StaticPolicy pol_b(TechniqueKind::kQuant8);
  SyncEngine b(tweaked, &sel_b, &pol_b);
  const ExperimentResult rb = b.Run();

  // Premise: interruptions the armed layer would have salvaged occurred.
  EXPECT_GT(ra.dropout_breakdown.crashed + ra.dropout_breakdown.missed_deadline, 0u);

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_selected, rb.total_selected);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  EXPECT_EQ(ra.wall_clock_hours, rb.wall_clock_hours);
  ExpectZeroSalvageCounters(ra);
  ExpectZeroSalvageCounters(rb);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(SalvageNoOpTest, AsyncEngineDisabledSalvageIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.salvage = DisarmedButTweaked();

  StaticPolicy pol_a(TechniqueKind::kPrune50);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kPrune50);
  AsyncEngine b(tweaked, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  ExpectZeroSalvageCounters(ra);
  ExpectZeroSalvageCounters(rb);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(SalvageNoOpTest, RealEngineDisabledSalvageIsByteIdentical) {
  RealFlConfig plain;
  plain.num_clients = 8;
  plain.clients_per_round = 4;
  plain.num_classes = 3;
  plain.input_dim = 8;
  plain.hidden_dims = {12};
  plain.test_samples_per_class = 10;
  plain.seed = 5;
  plain.num_threads = 1;
  plain.faults.crash_prob = 0.25;
  RealFlConfig tweaked = plain;
  tweaked.salvage = DisarmedButTweaked();

  RealFlEngine a(plain);
  RealFlEngine b(tweaked);
  size_t crashed = 0;
  RealRoundStats sa;
  RealRoundStats sb;
  for (size_t r = 0; r < 5; ++r) {
    sa = a.RunRound(TechniqueKind::kQuant8);
    sb = b.RunRound(TechniqueKind::kQuant8);
    crashed += sa.crashed;
  }
  EXPECT_GT(crashed, 0u);  // interruptions happened and were all discarded
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  for (const RealRoundStats* s : {&sa, &sb}) {
    EXPECT_EQ(s->partials_salvaged, 0u);
    EXPECT_EQ(s->partials_below_min, 0u);
    EXPECT_EQ(s->partials_rejected, 0u);
    EXPECT_EQ(s->salvaged_steps, 0u);
  }
  EXPECT_EQ(a.salvage_tracker().partials_salvaged, 0u);
  EXPECT_EQ(b.salvage_tracker().partials_salvaged, 0u);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

}  // namespace
}  // namespace floatfl
