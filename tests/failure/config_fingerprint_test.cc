// Pins the resume fingerprint of each engine config (DESIGN.md §8).
//
// Restore refuses an archive whose recorded fingerprint differs from its
// engine's config, so a change to the fingerprint's bytes makes every saved
// archive unreadable, and a field left out of it lets an archive resume
// under a config it was not taken with. The constants below are the
// fingerprints of the default configs and of one config per type with
// every field set to its own non-default value; an edit to any walk's order,
// width or membership moves at least one of them.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/failure/checkpointer.h"
#include "src/fl/experiment.h"
#include "src/fl/real_engine.h"
#include "src/fl/vfl_engine.h"

namespace floatfl {
namespace {

// Hands out a fresh value on every call, so no two fields of a filled
// config agree and two fields swapped in a walk change its bytes.
class Distinct {
 public:
  double Real() { return 0.001 * static_cast<double>(++n_); }
  size_t Count() { return 100 + ++n_; }

 private:
  size_t n_ = 0;
};

void Fill(Distinct& d, FaultConfig& f) {
  f.crash_prob = d.Real();
  f.corrupt_prob = d.Real();
  f.blackout_period_s = d.Real();
  f.blackout_duration_s = d.Real();
  f.flaky_fraction = d.Real();
  f.flaky_enter_prob = d.Real();
  f.flaky_exit_prob = d.Real();
  f.flaky_crash_prob = d.Real();
  f.transport = true;
  f.chunk_loss_prob = d.Real();
  f.link_blackout_prob = d.Real();
  f.transport_chunk_mb = d.Real();
  f.max_transfer_retries = d.Count();
  f.resumable_uploads = false;
  f.byzantine_mode = ByzantineMode::kGaussianNoise;
  f.byzantine_fraction = d.Real();
  f.byzantine_scale = d.Real();
  f.byzantine_start_round = d.Count();
  f.duplicate_prob = d.Real();
  f.replay_prob = d.Real();
  f.reorder_prob = d.Real();
  f.stampede_prob = d.Real();
  f.stampede_factor = d.Count();
  f.overcommit = d.Real();
  f.retry_cooldown_rounds = d.Count();
  f.reject_norm_threshold = d.Real();
  f.corrupt_scale = d.Real();
}

void Fill(Distinct& d, AggregatorConfig& a, AggregatorKind kind) {
  a.kind = kind;
  a.trim_fraction = d.Real();
  a.krum_assumed_byzantine = d.Count();
  a.multi_krum_m = d.Count();
  a.clip_norm = d.Real();
}

void Fill(Distinct& d, AdaptiveDeadlineConfig& a) {
  a.enabled = true;
  a.min_factor = d.Real();
  a.max_factor = d.Real();
  a.headroom = d.Real();
}

void Fill(Distinct& d, GuardConfig& g) {
  g.enabled = true;
  g.collapse_threshold = d.Real();
  g.patience = d.Count();
  g.stall_epsilon = d.Real();
  g.snapshot_ring = d.Count();
  g.snapshot_every = d.Count();
  g.min_snapshot_coverage = d.Real();
  g.safe_mode_rounds = d.Count();
  g.quarantine_min_trials = d.Count();
  g.quarantine_failure_rate = d.Real();
  g.quarantine_cooldown_rounds = d.Count();
  g.quarantine_max_strikes = d.Count();
}

void Fill(Distinct& d, TopologyConfig& t) {
  t.num_edges = d.Count();
  t.failover = false;
  t.edge_retry_cooldown_rounds = d.Count();
  t.edge_overcommit = d.Real();
  t.edge_crash_prob = d.Real();
  t.edge_blackout_prob = d.Real();
  t.edge_flaky_fraction = d.Real();
  t.edge_flaky_enter_prob = d.Real();
  t.edge_flaky_exit_prob = d.Real();
  t.edge_flaky_crash_prob = d.Real();
  t.edge_byzantine_mode = ByzantineMode::kSignFlip;
  t.edge_byzantine_fraction = d.Real();
  t.edge_byzantine_scale = d.Real();
  t.edge_link_loss_prob = d.Real();
  t.edge_link_blackout_prob = d.Real();
  t.edge_chunk_mb = d.Real();
  t.edge_max_retries = d.Count();
  Fill(d, t.edge_aggregator, AggregatorKind::kMedian);
  Fill(d, t.edge_adaptive_deadline);
}

void Fill(Distinct& d, AdmissionConfig& a) {
  a.queue_capacity = d.Count();
  a.shed_policy = SheddingPolicy::kUtilityPriority;
  a.dedup = true;
  a.dedup_window_rounds = d.Count();
  a.reject_replays = true;
  a.max_update_age = d.Count();
  a.rate_tokens_per_round = d.Real();
  a.rate_bucket_cap = d.Real();
  a.async_max_staleness = d.Real();
  a.staleness_downweight = true;
  a.staleness_decay = d.Real();
}

void Fill(Distinct& d, SalvageConfig& s) {
  s.enabled = true;
  s.min_progress = d.Real();
  s.speculation = true;
  s.speculation_margin = d.Real();
  s.max_backup_fraction = d.Real();
}

ExperimentConfig FullExperimentConfig() {
  Distinct d;
  ExperimentConfig c;
  c.num_clients = d.Count();
  c.clients_per_round = d.Count();
  c.rounds = d.Count();
  c.epochs = d.Count();
  c.batch_size = d.Count();
  c.deadline_s = d.Real();
  c.dataset = DatasetId::kSpeech;
  c.model = ModelId::kShuffleNetV2;
  c.alpha = d.Real();
  c.interference = InterferenceScenario::kStatic;
  c.seed = d.Count();
  c.assume_no_dropouts = true;
  c.async_concurrency = d.Count();
  c.async_buffer = d.Count();
  c.num_threads = d.Count();
  Fill(d, c.faults);
  Fill(d, c.aggregator, AggregatorKind::kKrum);
  Fill(d, c.adaptive_deadline);
  Fill(d, c.guard);
  Fill(d, c.topology);
  Fill(d, c.admission);
  Fill(d, c.salvage);
  return c;
}

RealFlConfig FullRealFlConfig() {
  Distinct d;
  RealFlConfig c;
  c.num_clients = d.Count();
  c.clients_per_round = d.Count();
  c.num_classes = d.Count();
  c.input_dim = d.Count();
  c.class_separation = d.Real();
  c.alpha = d.Real();
  c.hidden_dims = {d.Count(), d.Count(), d.Count()};
  c.sgd.learning_rate = static_cast<float>(d.Real());
  c.sgd.batch_size = d.Count();
  c.sgd.epochs = d.Count();
  c.sgd.frozen_layers = d.Count();
  c.sgd.max_steps = d.Count();
  c.test_samples_per_class = d.Count();
  c.seed = d.Count();
  c.num_threads = d.Count();
  Fill(d, c.faults);
  Fill(d, c.aggregator, AggregatorKind::kNormClip);
  Fill(d, c.guard);
  Fill(d, c.topology);
  Fill(d, c.admission);
  Fill(d, c.salvage);
  return c;
}

VflConfig FullVflConfig() {
  Distinct d;
  VflConfig c;
  c.num_parties = d.Count();
  c.features_per_party = d.Count();
  c.embedding_dim = d.Count();
  c.num_classes = d.Count();
  c.train_samples = d.Count();
  c.test_samples = d.Count();
  c.class_separation = d.Real();
  c.learning_rate = static_cast<float>(d.Real());
  c.batch_size = d.Count();
  c.seed = d.Count();
  Fill(d, c.faults);
  Fill(d, c.guard);
  return c;
}

TEST(ConfigFingerprintTest, DefaultConfigs) {
  EXPECT_EQ(FingerprintConfig(ExperimentConfig{}), 0x3C246022FF1BB075ULL);
  EXPECT_EQ(FingerprintConfig(RealFlConfig{}), 0xF0DB7E6BCD88F2C5ULL);
  EXPECT_EQ(FingerprintConfig(VflConfig{}), 0x543E2A4B22EF0D12ULL);
}

TEST(ConfigFingerprintTest, EveryFieldSet) {
  EXPECT_EQ(FingerprintConfig(FullExperimentConfig()), 0xE1FEB1ABE2A1AE6EULL);
  EXPECT_EQ(FingerprintConfig(FullRealFlConfig()), 0x8558F012CD50CB94ULL);
  EXPECT_EQ(FingerprintConfig(FullVflConfig()), 0x27675C43271027F2ULL);
}

// num_threads is the one field the fingerprint leaves out: results do not
// depend on it, so an archive resumes at any thread count.
TEST(ConfigFingerprintTest, ThreadCountLeftOut) {
  ExperimentConfig experiment = FullExperimentConfig();
  const uint64_t experiment_print = FingerprintConfig(experiment);
  experiment.num_threads = 1;
  EXPECT_EQ(FingerprintConfig(experiment), experiment_print);

  RealFlConfig real = FullRealFlConfig();
  const uint64_t real_print = FingerprintConfig(real);
  real.num_threads = 1;
  EXPECT_EQ(FingerprintConfig(real), real_print);
}

}  // namespace
}  // namespace floatfl
