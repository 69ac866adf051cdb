#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "src/common/check.h"
#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/sync_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/random_selector.h"

namespace perfbench {
namespace {

using floatfl::AggregatorKind;
using floatfl::AsyncEngine;
using floatfl::ByzantineMode;
using floatfl::Checkpointer;
using floatfl::CheckpointWriter;
using floatfl::DatasetId;
using floatfl::ExperimentConfig;
using floatfl::ExperimentResult;
using floatfl::FloatController;
using floatfl::InterferenceScenario;
using floatfl::ModelId;
using floatfl::RealFlConfig;
using floatfl::RealFlEngine;
using floatfl::RealRoundStats;
using floatfl::Selector;
using floatfl::SyncEngine;
using floatfl::TuningPolicy;

constexpr const char* kArchiveName = "memory";

// The paper's Section-6.1 setup: 200 clients, 30 per round, 300 rounds,
// FEMNIST on ResNet-34, batch 20, 5 local epochs, Dirichlet alpha 0.1,
// dynamic interference; FedBuff runs 100 concurrent with a buffer of 30.
ExperimentConfig PaperConfig(uint64_t seed, size_t threads) {
  ExperimentConfig config;
  config.num_clients = 200;
  config.clients_per_round = 30;
  config.rounds = 300;
  config.epochs = 5;
  config.batch_size = 20;
  config.dataset = DatasetId::kFemnist;
  config.model = ModelId::kResNet34;
  config.alpha = 0.1;
  config.interference = InterferenceScenario::kDynamic;
  config.seed = seed;
  config.async_concurrency = 100;
  config.async_buffer = 30;
  config.num_threads = threads;
  return config;
}

// 100 clients, 20 per round, an MLP 64 -> 256 -> 128 -> 10 (50.8k
// parameters) trained for one local epoch.
RealFlConfig RealMlpConfig(uint64_t seed, size_t threads) {
  RealFlConfig config;
  config.num_clients = 100;
  config.clients_per_round = 20;
  config.num_classes = 10;
  config.input_dim = 64;
  config.hidden_dims = {256, 128};
  config.sgd.epochs = 1;
  config.seed = seed;
  config.num_threads = threads;
  return config;
}

Part SyncPart(const std::string& name, const ExperimentConfig& config,
              const std::string& selector) {
  Part part;
  part.name = name;
  part.kind = EngineKind::kSync;
  part.sim = config;
  part.selector = selector;
  part.rounds = config.rounds;
  return part;
}

std::unique_ptr<Selector> MakeSelector(const std::string& name, const ExperimentConfig& config) {
  if (name == "fedavg") {
    return std::make_unique<floatfl::RandomSelector>(config.seed + 101);
  }
  FLOATFL_CHECK_MSG(name == "oort", "unknown selector");
  return std::make_unique<floatfl::OortSelector>(config.seed + 202, config.num_clients);
}

// Selector (sync only), FLOAT and the engine, wrapped in the forwarding
// timers when the run is traced.
template <typename Engine>
struct Stack {
  std::unique_ptr<Selector> selector;
  std::unique_ptr<FloatController> policy;
  // Heap-held so the engine's pointers survive moving the stack.
  std::unique_ptr<TimedSelector> timed_selector;
  std::unique_ptr<TimedPolicy> timed_policy;
  std::unique_ptr<Engine> engine;

  Selector* selector_ptr() {
    return timed_selector ? static_cast<Selector*>(timed_selector.get()) : selector.get();
  }
  TuningPolicy* policy_ptr() {
    return timed_policy ? static_cast<TuningPolicy*>(timed_policy.get()) : policy.get();
  }
};

template <typename Engine>
void Wrap(Stack<Engine>& s, const RunOptions& o) {
  if (o.log == nullptr) {
    return;
  }
  if (s.selector) {
    s.timed_selector = std::make_unique<TimedSelector>(*s.selector, *o.log, o.rounds);
  }
  s.timed_policy = std::make_unique<TimedPolicy>(*s.policy, *o.log, o.rounds);
}

Stack<SyncEngine> BuildSync(const ExperimentConfig& config, const std::string& selector,
                            const RunOptions& o) {
  Stack<SyncEngine> s;
  s.selector = MakeSelector(selector, config);
  s.policy = FloatController::MakeDefault(config.seed, config.rounds);
  Wrap(s, o);
  s.engine = std::make_unique<SyncEngine>(config, s.selector_ptr(), s.policy_ptr());
  return s;
}

Stack<AsyncEngine> BuildAsync(const ExperimentConfig& config, const RunOptions& o) {
  Stack<AsyncEngine> s;
  s.policy = FloatController::MakeDefault(config.seed, config.rounds);
  Wrap(s, o);
  s.engine = std::make_unique<AsyncEngine>(config, s.policy_ptr());
  return s;
}

Stack<RealFlEngine> BuildReal(const RealFlConfig& config, size_t rounds, const RunOptions& o) {
  Stack<RealFlEngine> s;
  s.policy = FloatController::MakeDefault(config.seed, rounds);
  Wrap(s, o);
  s.engine = std::make_unique<RealFlEngine>(config);
  s.engine->AttachPolicy(s.policy_ptr());
  return s;
}

template <typename Engine>
std::string StateBytes(const Engine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

// Times Save of `engine`'s final state into memory (median of three), then
// Restore into `fresh` from a file in the probe's work directory, and checks
// that the restored engine serializes to the same bytes.
template <typename Engine>
void ProbeCheckpoint(const Engine& engine, Engine& fresh, CheckpointProbe& probe) {
  MemoryFile archive;
  probe.save_ms.clear();
  for (int i = 0; i < 3; ++i) {
    const int64_t t = NowNs();
    FLOATFL_CHECK(Checkpointer::Save(kArchiveName, engine, archive));
    probe.save_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
  }
  probe.archive_mb = static_cast<double>(archive.bytes().size()) / 1e6;
  const std::string path = probe.workdir + "/restore.ckpt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(archive.bytes().data(), static_cast<std::streamsize>(archive.bytes().size()));
    FLOATFL_CHECK_MSG(out.good(), "cannot write the restore archive");
  }
  const int64_t t = NowNs();
  const bool restored = Checkpointer::Restore(path, fresh);
  probe.restore_ms = static_cast<double>(NowNs() - t) * 1e-6;
  std::remove(path.c_str());
  probe.restore_identical = restored && StateBytes(fresh) == StateBytes(engine);
}

size_t AggregationsToRun(const Part& part, const RunOptions& o) {
  return o.round_limit != 0 ? std::min(o.round_limit, part.rounds) : part.rounds;
}

PartRun RunSync(const Part& part, const RunOptions& o) {
  ExperimentConfig config = part.sim;
  if (o.threads != 0) {
    config.num_threads = o.threads;
  }
  const size_t rounds = AggregationsToRun(part, o);
  PartRun run;
  const int64_t setup_start = NowNs();
  Stack<SyncEngine> s = BuildSync(config, part.selector, o);
  run.setup_s = SecondsSince(setup_start);
  SyncEngine& engine = *s.engine;
  const int64_t loop_start = NowNs();
  for (size_t r = 0; r < rounds; ++r) {
    const int64_t t = NowNs();
    {
      ScopedSpan span(o.log, part.span);
      engine.RunRound(r);
    }
    run.round_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
  }
  run.loop_s = SecondsSince(loop_start);
  const ExperimentResult result = engine.Snapshot();
  run.aggregations = rounds;
  run.selected = result.total_selected;
  run.completed = result.total_completed;
  run.digest = DigestResult(result);
  if (o.checkpoint != nullptr) {
    Stack<SyncEngine> fresh = BuildSync(config, part.selector, RunOptions());
    ProbeCheckpoint(engine, *fresh.engine, *o.checkpoint);
    o.checkpoint->restore_identical =
        o.checkpoint->restore_identical && DigestResult(fresh.engine->Snapshot()) == run.digest;
  }
  return run;
}

PartRun RunAsync(const Part& part, const RunOptions& o) {
  ExperimentConfig config = part.sim;
  if (o.threads != 0) {
    config.num_threads = o.threads;
  }
  const size_t versions = AggregationsToRun(part, o);
  PartRun run;
  const int64_t setup_start = NowNs();
  Stack<AsyncEngine> s = BuildAsync(config, o);
  run.setup_s = SecondsSince(setup_start);
  AsyncEngine& engine = *s.engine;
  const int64_t loop_start = NowNs();
  for (size_t v = 0; v < versions; ++v) {
    const int64_t t = NowNs();
    {
      ScopedSpan span(o.log, part.span);
      engine.RunUntil(v + 1);
    }
    run.round_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
  }
  run.loop_s = SecondsSince(loop_start);
  const ExperimentResult result = engine.Snapshot();
  run.aggregations = versions;
  run.selected = result.total_selected;
  run.completed = result.total_completed;
  run.digest = DigestResult(result);
  if (o.checkpoint != nullptr) {
    Stack<AsyncEngine> fresh = BuildAsync(config, RunOptions());
    ProbeCheckpoint(engine, *fresh.engine, *o.checkpoint);
    o.checkpoint->restore_identical =
        o.checkpoint->restore_identical && DigestResult(fresh.engine->Snapshot()) == run.digest;
  }
  return run;
}

PartRun RunReal(const Part& part, const RunOptions& o) {
  RealFlConfig config = part.real;
  if (o.threads != 0) {
    config.num_threads = o.threads;
  }
  const size_t rounds = AggregationsToRun(part, o);
  PartRun run;
  const int64_t setup_start = NowNs();
  Stack<RealFlEngine> s = BuildReal(config, part.rounds, o);
  run.setup_s = SecondsSince(setup_start);
  RealFlEngine& engine = *s.engine;
  Digest digest;
  const int64_t loop_start = NowNs();
  for (size_t r = 0; r < rounds; ++r) {
    const int64_t t = NowNs();
    RealRoundStats stats;
    {
      ScopedSpan span(o.log, part.span);
      stats = engine.RunRoundWithPolicy();
    }
    run.round_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
    digest.F64(stats.test_accuracy);
    digest.F64(stats.test_loss);
    digest.U64(stats.participants);
    digest.F64(stats.mean_upload_bytes);
    run.completed += stats.participants;
  }
  run.loop_s = SecondsSince(loop_start);
  digest.F32s(engine.global_model().GetParameters());
  run.aggregations = rounds;
  // No faults, admission or salvage are armed, so every round tasks exactly
  // clients_per_round clients.
  run.selected = rounds * config.clients_per_round;
  run.digest = digest.value();
  if (o.checkpoint != nullptr) {
    Stack<RealFlEngine> fresh = BuildReal(config, part.rounds, RunOptions());
    ProbeCheckpoint(engine, *fresh.engine, *o.checkpoint);
    o.checkpoint->restore_identical =
        o.checkpoint->restore_identical &&
        fresh.engine->global_model().GetParameters() == engine.global_model().GetParameters();
  }
  return run;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_fig12", "real_mlp"};
  return names;
}

// The sync chaos-soak mix: client faults, Byzantine attackers against a
// trimmed mean, the lossy transport, an overload storm against the admission
// layer, the guard, salvage with speculation, and a faulty two-tier tree.
ExperimentConfig ChaosConfig(uint64_t seed, size_t threads) {
  ExperimentConfig config = PaperConfig(seed, threads);
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.2;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.3;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.15;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.dedup_window_rounds = 4;
  config.admission.reject_replays = true;
  config.admission.rate_tokens_per_round = 4.0;
  config.admission.rate_bucket_cap = 8.0;
  config.admission.queue_capacity = 24;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  config.topology.num_edges = 2;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

ExperimentConfig AsyncCompatible(ExperimentConfig config) {
  config.topology = floatfl::TopologyConfig();
  config.salvage.speculation = false;
  return config;
}

namespace {

bool MakeInputSet(const std::string& name, uint64_t seed, size_t threads, Workload* out) {
  Workload w;
  w.name = name;
  w.probe_real = RealMlpConfig(seed, threads);
  if (name == "paper_fig12") {
    const ExperimentConfig config = PaperConfig(seed, threads);
    w.parts.push_back(SyncPart("fedavg_float", config, "fedavg"));
    w.parts.push_back(SyncPart("oort_float", config, "oort"));
    Part fedbuff;
    fedbuff.name = "fedbuff_float";
    fedbuff.kind = EngineKind::kAsync;
    fedbuff.sim = config;
    fedbuff.rounds = config.rounds;
    fedbuff.span = "fl.async_version";
    w.parts.push_back(fedbuff);
    w.probe_sim = config;
  } else if (name == "real_mlp") {
    Part part;
    part.name = "real_float";
    part.kind = EngineKind::kReal;
    part.real = w.probe_real;
    part.rounds = 30;
    w.parts.push_back(part);
    ExperimentConfig config = PaperConfig(seed, threads);
    config.num_clients = part.real.num_clients;
    config.clients_per_round = part.real.clients_per_round;
    w.probe_sim = config;
  } else {
    return false;
  }
  for (Part& part : w.parts) {
    part.seed = seed;
  }
  *out = w;
  return true;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, size_t threads, size_t input_sets,
                  Workload* out) {
  Workload w;
  for (size_t j = 0; j < input_sets; ++j) {
    Workload one;
    if (!MakeInputSet(name, seed * input_sets + j, threads, &one)) {
      return false;
    }
    if (j == 0) {
      w = one;
    } else {
      w.parts.insert(w.parts.end(), one.parts.begin(), one.parts.end());
    }
  }
  *out = w;
  return true;
}

PartRun RunPart(const Part& part, const RunOptions& opts) {
  switch (part.kind) {
    case EngineKind::kSync:
      return RunSync(part, opts);
    case EngineKind::kAsync:
      return RunAsync(part, opts);
    case EngineKind::kReal:
      return RunReal(part, opts);
  }
  FLOATFL_CHECK(false);
  return PartRun();
}

}  // namespace perfbench
