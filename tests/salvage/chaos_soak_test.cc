// Cross-subsystem chaos soak (ISSUE 10 satellite): every fault system the
// repo has grown — client crashes, corruption, Byzantine attackers, the
// lossy transport, edge-tier faults, overload storms, the self-healing
// guard — armed at once WITH the salvage layer, per engine. Three
// invariants must hold under the full storm:
//   1. Finiteness: every reported metric is a finite number.
//   2. Conservation: exactly one policy Report per selected execution
//      (events == total_selected), and completions + dropouts == selected.
//   3. Determinism: 50 rounds + checkpoint/resume + 50 rounds is bit-exact
//      against the uninterrupted run.
// The same storms also pin each engine's end state to a digest (StagePinTest
// below).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/float_controller.h"
#include "src/core/heuristic_policy.h"
#include "src/core/per_client_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/random_selector.h"
#include "src/selection/refl_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Counts Reports and checks every credit is finite.
class CountingPolicy final : public TuningPolicy {
 public:
  TechniqueKind Decide(size_t, const ClientObservation&, const GlobalObservation&) override {
    return TechniqueKind::kQuant8;
  }
  void Report(size_t client_id, const ClientObservation&, const GlobalObservation&, TechniqueKind,
              bool participated, double credit) override {
    EXPECT_TRUE(std::isfinite(credit)) << "non-finite credit for client " << client_id;
    ++events_;
    failed_ += participated ? 0 : 1;
  }
  std::string Name() const override { return "counting"; }
  size_t Events() const { return events_; }
  size_t Failed() const { return failed_; }

 private:
  size_t events_ = 0;
  size_t failed_ = 0;
};

// Every fault system at once, salvage and speculation armed on top.
ExperimentConfig ChaosConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 100;
  config.seed = 7777;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  // Client faults.
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.2;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.3;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  // Byzantine attack vs a robust rule.
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.15;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  // Lossy transport.
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 2;
  // Overload storm vs the admission layer.
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.dedup_window_rounds = 4;
  config.admission.reject_replays = true;
  config.admission.rate_tokens_per_round = 4.0;
  config.admission.rate_bucket_cap = 8.0;
  config.admission.queue_capacity = 24;
  // Self-healing guard.
  config.guard.enabled = true;
  // Salvage + speculation.
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  return config;
}

// The sync storm additionally routes through a faulty two-tier tree.
ExperimentConfig SyncChaosConfig() {
  ExperimentConfig config = ChaosConfig();
  config.topology.num_edges = 2;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

// The async storm: no round deadline, so speculation (and the tree) stay off.
ExperimentConfig AsyncChaosConfig() {
  ExperimentConfig config = ChaosConfig();
  config.salvage.speculation = false;
  config.async_concurrency = 16;
  config.async_buffer = 4;
  return config;
}

// The real-engine storm: every fault system the parameter-space engine has.
RealFlConfig RealChaosConfig() {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 6;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 67;
  config.num_threads = 1;
  config.sgd.epochs = 2;
  config.faults.crash_prob = 0.2;
  config.faults.corrupt_prob = 0.1;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.faults.chunk_loss_prob = 0.15;
  config.faults.transport_chunk_mb = 0.01;
  config.faults.max_transfer_retries = 1;
  config.faults.duplicate_prob = 0.3;
  config.faults.replay_prob = 0.3;
  config.admission.dedup = true;
  config.admission.reject_replays = true;
  config.guard.enabled = true;
  config.topology.num_edges = 2;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.salvage.enabled = true;
  return config;
}

void ExpectFinite(const ExperimentResult& r) {
  for (double v :
       {r.accuracy_avg, r.accuracy_top10, r.accuracy_bottom10, r.global_accuracy, r.wire_mb,
        r.retransmitted_mb, r.salvaged_mb, r.transfer_backoff_s, r.transfer_progress_mb,
        r.tier1_wire_mb, r.tier1_retransmitted_mb, r.redundant_mb, r.salvaged_progress_mb,
        r.useful.compute_hours, r.useful.comm_hours, r.useful.memory_tb, r.wasted.compute_hours,
        r.wasted.comm_hours, r.wasted.memory_tb, r.wall_clock_hours}) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (double a : r.accuracy_history) {
    EXPECT_TRUE(std::isfinite(a));
  }
}

void ExpectConservation(const ExperimentResult& r, const CountingPolicy& policy) {
  // One Report per selected execution (speculative backups included), one
  // dropout reason per failed one, nothing double-counted.
  EXPECT_EQ(policy.Events(), r.total_selected);
  EXPECT_EQ(policy.Failed(), r.total_dropouts);
  EXPECT_EQ(r.total_completed + r.total_dropouts, r.total_selected);
  EXPECT_EQ(r.dropout_breakdown.Total(), r.total_dropouts);
}

TEST(ChaosSoakTest, SyncEngineSurvivesTheFullStormWithSalvageArmed) {
  const ExperimentConfig config = SyncChaosConfig();
  const std::string path = TempPath("chaos_sync_resume.ckpt");

  RandomSelector full_sel(config.seed);
  CountingPolicy full_pol;
  SyncEngine full(config, &full_sel, &full_pol);
  const ExperimentResult result = full.Run();

  // Premise: the storm actually exercised every subsystem.
  EXPECT_GT(result.dropout_breakdown.crashed, 0u);
  EXPECT_GT(result.rejected_updates, 0u);
  EXPECT_GT(result.byzantine_selected, 0u);
  EXPECT_GT(result.transfer_attempts, 0u);
  EXPECT_GT(result.edge_crashes + result.edge_blackouts, 0u);
  EXPECT_GT(result.admission_deduplicated + result.admission_replay_rejected, 0u);
  EXPECT_GT(result.partials_salvaged, 0u);
  EXPECT_GT(result.backups_planned, 0u);

  ExpectFinite(result);
  ExpectConservation(result, full_pol);

  // 50 + resume + 50 is bit-exact against the straight 100.
  RandomSelector half_sel(config.seed);
  CountingPolicy half_pol;
  SyncEngine half(config, &half_sel, &half_pol);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));
  RandomSelector resumed_sel(config.seed);
  CountingPolicy resumed_pol;
  SyncEngine resumed(config, &resumed_sel, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();
  EXPECT_EQ(actual.accuracy_history, result.accuracy_history);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(ChaosSoakTest, AsyncEngineSurvivesTheFullStormWithSalvageArmed) {
  const ExperimentConfig config = AsyncChaosConfig();
  const std::string path = TempPath("chaos_async_resume.ckpt");

  CountingPolicy full_pol;
  AsyncEngine full(config, &full_pol);
  const ExperimentResult result = full.Run();

  EXPECT_GT(result.dropout_breakdown.crashed, 0u);
  EXPECT_GT(result.byzantine_selected, 0u);
  EXPECT_GT(result.admission_deduplicated + result.admission_replay_rejected, 0u);
  EXPECT_GT(result.partials_salvaged, 0u);

  ExpectFinite(result);
  ExpectConservation(result, full_pol);

  CountingPolicy half_pol;
  AsyncEngine half(config, &half_pol);
  half.RunUntil(config.rounds / 2);
  ASSERT_TRUE(Checkpointer::Save(path, half));
  CountingPolicy resumed_pol;
  AsyncEngine resumed(config, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();
  EXPECT_EQ(actual.accuracy_history, result.accuracy_history);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(ChaosSoakTest, RealEngineSurvivesTheFullStormWithSalvageArmed) {
  const RealFlConfig config = RealChaosConfig();
  const std::string path = TempPath("chaos_real_resume.ckpt");
  constexpr size_t kRounds = 10;

  RealFlEngine full(config);
  CountingPolicy full_pol;
  full.AttachPolicy(&full_pol);
  size_t crashed = 0;
  size_t participants = 0;
  size_t salvaged = 0;
  size_t redundant_deliveries = 0;
  for (size_t r = 0; r < kRounds; ++r) {
    const RealRoundStats stats = full.RunRoundWithPolicy();
    EXPECT_TRUE(std::isfinite(stats.test_accuracy));
    EXPECT_TRUE(std::isfinite(stats.test_loss));
    crashed += stats.crashed;
    participants += stats.participants;
    salvaged += stats.partials_salvaged;
    redundant_deliveries +=
        stats.deduplicated + stats.shed + stats.rate_limited + stats.replay_rejected;
  }
  for (float p : full.global_model().GetParameters()) {
    ASSERT_TRUE(std::isfinite(p));
  }

  // Premise + conservation: the storm fired, and exactly one Report per
  // selected execution — each refused duplicate/replay delivery reports its
  // own participated=false outcome — with completions accounted.
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(salvaged, 0u);
  EXPECT_GT(redundant_deliveries, 0u);
  EXPECT_EQ(full_pol.Events(), kRounds * config.clients_per_round + redundant_deliveries);
  EXPECT_EQ(full_pol.Events() - full_pol.Failed(), participants);

  // Half + resume + half is bit-exact.
  RealFlEngine half(config);
  CountingPolicy half_pol;
  half.AttachPolicy(&half_pol);
  for (size_t r = 0; r < kRounds / 2; ++r) {
    half.RunRoundWithPolicy();
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));
  RealFlEngine resumed(config);
  CountingPolicy resumed_pol;
  resumed.AttachPolicy(&resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    resumed.RunRoundWithPolicy();
  }
  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

// Stage pins: an FNV-1a digest of each engine's final SaveState bytes plus
// its per-round accuracy, under the storms above (FloatController attached,
// so its Q-table updates land in the bytes) and under the same storms with
// the admission gate off, so admitted duplicates and replays and partials
// passing a disabled gate are covered too. No benchmark workload runs the
// ingestion, salvage, topology or guard stages; these pins are what holds
// them byte-identical across refactors. A deliberate behaviour change
// re-records the digests and says why.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename Engine>
uint64_t StateDigest(const Engine& engine, const std::vector<double>& accuracy_history) {
  CheckpointWriter w;
  engine.SaveState(w);
  Io(w, accuracy_history);
  return Fnv1a(w.buffer());
}

uint64_t SyncPin(const ExperimentConfig& config, Selector& selector, TuningPolicy* policy) {
  SyncEngine engine(config, &selector, policy);
  const ExperimentResult result = engine.Run();
  return StateDigest(engine, result.accuracy_history);
}

uint64_t SyncPin(const ExperimentConfig& config) {
  RandomSelector selector(config.seed);
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  return SyncPin(config, selector, policy.get());
}

uint64_t AsyncPin(const ExperimentConfig& config) {
  auto policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine engine(config, policy.get());
  const ExperimentResult result = engine.Run();
  return StateDigest(engine, result.accuracy_history);
}

uint64_t RealPin(const RealFlConfig& config) {
  constexpr size_t kRounds = 10;
  auto policy = FloatController::MakeDefault(config.seed, kRounds);
  RealFlEngine engine(config);
  engine.AttachPolicy(policy.get());
  std::vector<double> accuracy_history;
  for (size_t r = 0; r < kRounds; ++r) {
    accuracy_history.push_back(engine.RunRoundWithPolicy().test_accuracy);
  }
  return StateDigest(engine, accuracy_history);
}

template <typename Config>
Config Ungated(Config config) {
  config.admission = AdmissionConfig();
  return config;
}

void ExpectPin(uint64_t actual, uint64_t expected) {
  EXPECT_EQ(actual, expected) << "digest 0x" << std::hex << actual;
}

TEST(StagePinTest, SyncStormDigests) {
  ExpectPin(SyncPin(SyncChaosConfig()), 0x3866e5b96177b4d0ULL);
  ExpectPin(SyncPin(Ungated(SyncChaosConfig())), 0xa1ded565d3f3a516ULL);
}

TEST(StagePinTest, AsyncStormDigests) {
  ExpectPin(AsyncPin(AsyncChaosConfig()), 0xea4a69d62cc83bd9ULL);
  ExpectPin(AsyncPin(Ungated(AsyncChaosConfig())), 0xb137bd2ba7353242ULL);
}

TEST(StagePinTest, RealStormDigests) {
  ExpectPin(RealPin(RealChaosConfig()), 0xfb7c5038fe7b8eeeULL);
  ExpectPin(RealPin(Ungated(RealChaosConfig())), 0x850f19d4b3fbd7ebULL);
}

// Every RealRoundStats field, in declaration order. RealPin digests only the
// end state and the accuracy, so a drift in a per-round counter (shed,
// deduplicated, redundant_upload_mb, partials_rejected, reparented,
// tampered_partials, ...) would pass it.
void WriteRoundStats(CheckpointWriter& w, const RealRoundStats& s) {
  w.F64(s.test_accuracy);
  w.F64(s.test_loss);
  w.Size(s.participants);
  w.F64(s.mean_upload_bytes);
  w.F64(s.mean_update_error);
  w.Size(s.crashed);
  w.Size(s.rejected_updates);
  w.Size(s.byzantine_selected);
  w.Size(s.updates_clipped);
  w.Size(s.krum_rejections);
  w.Size(s.updates_trimmed);
  w.Size(s.transfer_timeouts);
  w.F64(s.retransmitted_mb);
  w.F64(s.salvaged_mb);
  w.Bool(s.rolled_back);
  w.Size(s.orphaned);
  w.Size(s.reparented);
  w.Size(s.partials_lost);
  w.Size(s.tampered_partials);
  w.Size(s.tampered_rejections);
  w.Size(s.admitted);
  w.Size(s.deduplicated);
  w.Size(s.shed);
  w.Size(s.rate_limited);
  w.Size(s.replay_rejected);
  w.Size(s.peak_queue_depth);
  w.F64(s.redundant_upload_mb);
  w.Size(s.partials_salvaged);
  w.Size(s.partials_below_min);
  w.Size(s.partials_rejected);
  w.U64(s.salvaged_steps);
}

// Ten policy rounds of the real engine with FloatController attached; each
// round's stats are appended to `stats` (may be null).
uint64_t RealStatsPin(const RealFlConfig& config, std::vector<RealRoundStats>* stats) {
  constexpr size_t kRounds = 10;
  auto policy = FloatController::MakeDefault(config.seed, kRounds);
  RealFlEngine engine(config);
  engine.AttachPolicy(policy.get());
  CheckpointWriter w;
  for (size_t r = 0; r < kRounds; ++r) {
    const RealRoundStats s = engine.RunRoundWithPolicy();
    WriteRoundStats(w, s);
    if (stats != nullptr) {
      stats->push_back(s);
    }
  }
  return Fnv1a(w.buffer());
}

TEST(StagePinTest, RealRoundStatsDigests) {
  std::vector<RealRoundStats> stats;
  ExpectPin(RealStatsPin(RealChaosConfig(), &stats), 0x25b54e3f5b8d7176ULL);
  ExpectPin(RealStatsPin(Ungated(RealChaosConfig()), nullptr), 0x330882f0e7c9a622ULL);
  // Premise: the storm fills the counters the shared stages book.
  size_t deduplicated = 0;
  size_t reparented = 0;
  size_t partials = 0;
  for (const RealRoundStats& s : stats) {
    deduplicated += s.deduplicated;
    reparented += s.reparented;
    partials += s.partials_salvaged + s.partials_rejected + s.partials_below_min;
  }
  EXPECT_GT(deduplicated, 0u);
  EXPECT_GT(reparented, 0u);
  EXPECT_GT(partials, 0u);
}

// An ingress storm none of the storms above runs: reordered arrivals,
// stampedes multiplying duplicates and replays, a small ingress queue shed by
// utility, a bucket refilled by one token per round, a dedup window of one
// round and a replay bar of three, so every verdict kind fires.
// Frequent crashes leave bursts with few fresh uploads, so replays of
// different ages compete for the queue on their utility (the logged quality
// on the surrogate engines, the logged weight on the real one); with salvage
// armed the partials pass the same gate.
void ArmIngressStorm(FaultConfig& faults, AdmissionConfig& admission) {
  faults.duplicate_prob = 0.3;
  faults.replay_prob = 0.8;
  faults.reorder_prob = 0.5;
  faults.stampede_prob = 0.25;
  faults.stampede_factor = 3;
  faults.crash_prob = 0.5;
  admission.queue_capacity = 3;
  admission.shed_policy = SheddingPolicy::kUtilityPriority;
  admission.dedup = true;
  admission.dedup_window_rounds = 1;
  admission.reject_replays = true;
  admission.max_update_age = 3;
  admission.rate_tokens_per_round = 1.0;
  admission.rate_bucket_cap = 1.0;
}

ExperimentConfig SurrogateIngressStorm() {
  ExperimentConfig config;
  config.num_clients = 12;
  config.clients_per_round = 8;
  config.rounds = 60;
  config.seed = 4242;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  ArmIngressStorm(config.faults, config.admission);
  config.salvage.enabled = true;
  return config;
}

ExperimentConfig AsyncIngressStorm() {
  ExperimentConfig config = SurrogateIngressStorm();
  config.async_concurrency = 12;
  config.async_buffer = 3;
  // A retirement burst holds one client's deliveries, so only a bucket that
  // can hold two tokens lets a second one reach a one-slot queue; refilled
  // at half a token per version, it still runs dry for busy clients.
  config.admission.queue_capacity = 1;
  config.admission.rate_tokens_per_round = 0.5;
  config.admission.rate_bucket_cap = 2.0;
  return config;
}

// Corrupted uploads thin the real engine's fresh bursts further.
RealFlConfig RealIngressStorm() {
  RealFlConfig config;
  config.num_clients = 6;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 91;
  config.num_threads = 1;
  ArmIngressStorm(config.faults, config.admission);
  config.faults.corrupt_prob = 0.3;
  config.salvage.enabled = true;
  return config;
}

void ExpectEveryVerdict(size_t admitted, size_t deduplicated, size_t shed, size_t rate_limited,
                        size_t replay_rejected) {
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(deduplicated, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(rate_limited, 0u);
  EXPECT_GT(replay_rejected, 0u);
}

TEST(StagePinTest, IngressStormDigests) {
  {
    const ExperimentConfig config = SurrogateIngressStorm();
    RandomSelector selector(config.seed);
    SyncEngine engine(config, &selector, nullptr);
    const ExperimentResult r = engine.Run();
    ExpectEveryVerdict(r.admission_admitted, r.admission_deduplicated, r.admission_shed,
                       r.admission_rate_limited, r.admission_replay_rejected);
    ExpectPin(SyncPin(config), 0xdcad8467a2bda0fbULL);
    ExpectPin(SyncPin(Ungated(config)), 0x460117ad59021a80ULL);
  }
  {
    const ExperimentConfig config = AsyncIngressStorm();
    AsyncEngine engine(config, nullptr);
    const ExperimentResult r = engine.Run();
    ExpectEveryVerdict(r.admission_admitted, r.admission_deduplicated, r.admission_shed,
                       r.admission_rate_limited, r.admission_replay_rejected);
    ExpectPin(AsyncPin(config), 0x8a509a79d9d743d5ULL);
    ExpectPin(AsyncPin(Ungated(config)), 0x739a07b2292ee8a9ULL);
  }
  {
    const RealFlConfig config = RealIngressStorm();
    std::vector<RealRoundStats> stats;
    ExpectPin(RealStatsPin(config, &stats), 0xbf93a855b070741aULL);
    size_t admitted = 0;
    size_t deduplicated = 0;
    size_t shed = 0;
    size_t rate_limited = 0;
    size_t replay_rejected = 0;
    for (const RealRoundStats& s : stats) {
      admitted += s.admitted;
      deduplicated += s.deduplicated;
      shed += s.shed;
      rate_limited += s.rate_limited;
      replay_rejected += s.replay_rejected;
    }
    ExpectEveryVerdict(admitted, deduplicated, shed, rate_limited, replay_rejected);
    ExpectPin(RealPin(config), 0x300e0c0257363b3aULL);
    ExpectPin(RealStatsPin(Ungated(config), nullptr), 0xad49b236a8787b95ULL);
    ExpectPin(RealPin(Ungated(config)), 0x19f01319642b9f15ULL);
  }
}

// Tree pins: the edge tier as none of the storms above runs it. Four edges,
// crashing one round in ten, half of them Byzantine in one mode per pin, and
// a lossy inter-tier link with one retry. Scaled replacement runs at a
// scale the root's validation rejects; sign-flip and Gaussian noise stay in
// band, so their partials reach the root.
struct EdgeAttack {
  ByzantineMode mode;
  double scale;
};

constexpr EdgeAttack kEdgeAttacks[] = {
    {ByzantineMode::kSignFlip, 3.0},
    {ByzantineMode::kScaledReplacement, 1e5},
    {ByzantineMode::kGaussianNoise, 3.0},
};

void ArmEdgeTier(TopologyConfig& topology, const EdgeAttack& attack, double link_loss_prob) {
  topology.num_edges = 4;
  topology.edge_crash_prob = 0.1;
  topology.edge_byzantine_mode = attack.mode;
  topology.edge_byzantine_fraction = 0.5;
  topology.edge_byzantine_scale = attack.scale;
  topology.edge_link_loss_prob = link_loss_prob;
  topology.edge_max_retries = 1;
}

// The sync tree adds the root's patience (an adaptive deadline over edge
// times and edge over-selection) and the adaptive round deadline; salvaged
// partials enter the tree beside the completed uploads. The small model
// lets an offline client's download attempt end within a second.
ExperimentConfig SyncTreeConfig(const EdgeAttack& attack) {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 12;
  config.rounds = 60;
  config.seed = 5150;
  config.model = ModelId::kSpeechCnn;
  config.interference = InterferenceScenario::kDynamic;
  config.adaptive_deadline.enabled = true;
  config.faults.crash_prob = 0.1;
  config.aggregator.kind = AggregatorKind::kKrum;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  ArmEdgeTier(config.topology, attack, 0.1);
  config.topology.edge_overcommit = 2.0;
  config.topology.edge_adaptive_deadline.enabled = true;
  config.topology.edge_adaptive_deadline.headroom = 1.5;
  return config;
}

// The real tree folds into a FedAvg root. Uploads ride a lossy link in small
// chunks, so timed-out uploads leave acked prefixes to salvage; replays are
// admitted at a staleness-discounted weight; and the guard refuses to
// snapshot a round that lost an update in the tree.
RealFlConfig RealTreeConfig(const EdgeAttack& attack) {
  RealFlConfig config;
  config.num_clients = 24;
  config.clients_per_round = 12;
  config.num_classes = 3;
  config.input_dim = 16;
  config.hidden_dims = {32};
  config.test_samples_per_class = 10;
  config.seed = 404;
  config.num_threads = 1;
  config.faults.crash_prob = 0.2;
  config.faults.chunk_loss_prob = 0.3;
  config.faults.transport_chunk_mb = 0.0005;
  config.faults.max_transfer_retries = 1;
  config.faults.replay_prob = 0.5;
  config.admission.staleness_downweight = true;
  config.guard.enabled = true;
  config.guard.min_snapshot_coverage = 1.0;
  config.salvage.enabled = true;
  ArmEdgeTier(config.topology, attack, 0.3);
  return config;
}

TEST(StagePinTest, SyncTreeDigests) {
  constexpr uint64_t kExpected[] = {0x57245c8a2ec3c6f8ULL, 0xf4ebd96c5938ff93ULL,
                                   0x8644d3000dfb4994ULL};
  for (size_t m = 0; m < 3; ++m) {
    SCOPED_TRACE(testing::Message() << "edge mode " << static_cast<int>(kEdgeAttacks[m].mode));
    const ExperimentConfig config = SyncTreeConfig(kEdgeAttacks[m]);
    ExpectPin(SyncPin(config), kExpected[m]);
    // Premise: every step of the edge tier acts.
    RandomSelector selector(config.seed);
    SyncEngine engine(config, &selector, nullptr);
    const ExperimentResult r = engine.Run();
    EXPECT_GT(r.tampered_partials, 0u);
    EXPECT_GT(r.partials_lost, 0u);
    EXPECT_GT(r.late_partials, 0u);
    EXPECT_GT(r.partials_salvaged, 0u);
    if (kEdgeAttacks[m].mode == ByzantineMode::kScaledReplacement) {
      EXPECT_GT(r.tampered_rejections, 0u);
    }
  }
}

TEST(StagePinTest, RealTreeDigests) {
  constexpr uint64_t kExpected[][2] = {{0x2c6bbc6fce74066eULL, 0x3fc65828f6f945e8ULL},
                                      {0x71ca7d1bc14571f7ULL, 0x121942e4eb982bc6ULL},
                                      {0x6137bfc5067e8efcULL, 0x36ccc757ba813dfcULL}};
  for (size_t m = 0; m < 3; ++m) {
    SCOPED_TRACE(testing::Message() << "edge mode " << static_cast<int>(kEdgeAttacks[m].mode));
    const RealFlConfig config = RealTreeConfig(kEdgeAttacks[m]);
    std::vector<RealRoundStats> stats;
    ExpectPin(RealStatsPin(config, &stats), kExpected[m][0]);
    ExpectPin(RealPin(config), kExpected[m][1]);
    // Premise: every step of the edge tier acts.
    size_t tampered = 0;
    size_t lost = 0;
    size_t rejected = 0;
    size_t salvaged = 0;
    for (const RealRoundStats& s : stats) {
      tampered += s.tampered_partials;
      lost += s.partials_lost;
      rejected += s.tampered_rejections;
      salvaged += s.partials_salvaged;
    }
    EXPECT_GT(tampered, 0u);
    EXPECT_GT(lost, 0u);
    EXPECT_GT(salvaged, 0u);
    EXPECT_EQ(rejected > 0, kEdgeAttacks[m].mode == ByzantineMode::kScaledReplacement);
  }
}

// The selector and policy state no storm above digests. Oort, REFL, the
// per-client controller and the heuristic are otherwise checked only by
// save -> load -> save round trips, which pass any change that alters both
// directions alike. A small population: the per-client controller keeps one
// Q-table per client.
ExperimentConfig SelectorPinConfig() {
  ExperimentConfig config;
  config.num_clients = 16;
  config.clients_per_round = 5;
  config.rounds = 30;
  config.seed = 2718;
  config.model = ModelId::kShuffleNetV2;
  config.interference = InterferenceScenario::kDynamic;
  config.faults.crash_prob = 0.15;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 2;
  config.guard.enabled = true;
  config.adaptive_deadline.enabled = true;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  return config;
}

TEST(StagePinTest, SelectorAndPolicyDigests) {
  const ExperimentConfig config = SelectorPinConfig();
  {
    OortSelector selector(config.seed, config.num_clients);
    auto policy = FloatController::MakeDefault(config.seed, config.rounds);
    ExpectPin(SyncPin(config, selector, policy.get()), 0xb7f54d620b5bf315ULL);
  }
  {
    ReflSelector selector(config.seed, config.num_clients);
    auto policy = PerClientController::MakeDefault(config.num_clients, config.seed, config.rounds);
    ExpectPin(SyncPin(config, selector, policy.get()), 0x7dd83f04e22a91b4ULL);
  }
  {
    RandomSelector selector(config.seed);
    HeuristicPolicy policy(config.seed);
    ExpectPin(SyncPin(config, selector, &policy), 0x11486cbadef17418ULL);
  }
}

// The VFL engine's payload, guard snapshots of the split model included.
TEST(StagePinTest, VflDigest) {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 37;
  config.faults.crash_prob = 0.2;
  config.faults.chunk_loss_prob = 0.2;
  config.faults.link_blackout_prob = 0.1;
  config.faults.transport_chunk_mb = 0.05;
  config.guard.enabled = true;
  VflEngine engine(config);
  std::vector<double> accuracy_history;
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    accuracy_history.push_back(engine.TrainEpoch(TechniqueKind::kQuant8).test_accuracy);
  }
  EXPECT_GT(engine.guard().ring().Size(), 0u);
  ExpectPin(StateDigest(engine, accuracy_history), 0x25ced23304c9c1b3ULL);
}

}  // namespace
}  // namespace floatfl
