// The benchmark's workloads and the closed-loop runner that drives one
// engine run of a workload part through the engines' public APIs only:
// constructors, RunRound, RunUntil and RunRoundWithPolicy.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench_core.h"
#include "src/fl/experiment.h"
#include "src/fl/real_engine.h"

namespace perfbench {

enum class EngineKind { kSync, kAsync, kReal };

// One engine run inside a workload: an engine, its config, and FLOAT
// attached as the tuning policy.
struct Part {
  std::string name;  // digest key with `seed`, e.g. "oort_float"
  uint64_t seed = 0;  // the seed its inputs are generated from
  EngineKind kind = EngineKind::kSync;
  floatfl::ExperimentConfig sim;  // sync and async parts; sim.rounds == rounds
  std::string selector;           // sync parts: "fedavg" or "oort"
  floatfl::RealFlConfig real;     // real parts
  size_t rounds = 0;              // aggregations per engine run
  // Span around each aggregation in a traced run.
  const char* span = "fl.round";
};

struct Workload {
  std::string name;
  std::vector<Part> parts;
  // Shapes for the layer probes of the traced run: the workload's own where
  // it has them. A workload without a sync or async part is probed at its own
  // N and K with the paper's FEMNIST setup; the nn/agg/opt probes and the
  // evaluate probe always use the real_mlp shape.
  floatfl::ExperimentConfig probe_sim;
  floatfl::RealFlConfig probe_real;
};

const std::vector<std::string>& WorkloadNames();

// Input sets an end-to-end run covers. Inputs differ between seeds by design
// and a workload's cost per round depends on them, so one input set per run
// would make a run's figures swing with its seed. A run with seed s covers
// input seeds s*n ... s*n + n-1.
constexpr size_t kInputSets = 4;

// The workload's parts for each of `input_sets` consecutive input seeds
// starting at seed*input_sets; the probe shapes come from the first. False
// for an unknown name. `threads` becomes every engine's num_threads.
bool MakeWorkload(const std::string& name, uint64_t seed, size_t threads, size_t input_sets,
                  Workload* out);

// The sync chaos-soak mix on the paper setup; its loss and admission
// settings shape the net and admission probes of every workload.
floatfl::ExperimentConfig ChaosConfig(uint64_t seed, size_t threads);

// The same setup with the knobs AsyncEngine refuses (topology, speculation)
// turned off.
floatfl::ExperimentConfig AsyncCompatible(floatfl::ExperimentConfig config);

// Checkpoint timing of a part's final state, and whether Restore into a
// freshly constructed engine reproduces it.
struct CheckpointProbe {
  std::string workdir;  // Restore reads from a file here
  std::vector<double> save_ms;
  double restore_ms = 0.0;
  double archive_mb = 0.0;
  bool restore_identical = false;
};

struct RunOptions {
  SpanLog* log = nullptr;                  // traced when non-null
  std::vector<RoundRecord>* rounds = nullptr;
  size_t round_limit = 0;                  // 0 = the part's full run
  size_t threads = 0;                      // 0 = the part's configured count
  CheckpointProbe* checkpoint = nullptr;   // probe the final state when non-null
};

struct PartRun {
  double setup_s = 0.0;  // selector, policy and engine construction
  double loop_s = 0.0;   // wall time from round 0 to the last aggregation
  std::vector<double> round_ms;
  size_t aggregations = 0;
  size_t selected = 0;   // client executions started
  size_t completed = 0;  // client executions whose update was aggregated
  uint64_t digest = 0;
};

PartRun RunPart(const Part& part, const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
