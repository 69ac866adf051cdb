// Parallel client-execution scaling: wall-clock per round versus
// num_threads, with the speedup over the sequential path. The benchmark's
// recorded speedup figure is perfbench's sim.parallel_speedup (DESIGN.md
// §12); this bench prints a table for a quick look at any thread counts.
//
// Two workloads:
//  * a 100-client synchronous trace-driven round (the paper-scale
//    simulation hot loop), and
//  * a real-training round (per-client SGD on MLPs — the compute-bound
//    path where parallelism pays most).
//
// Determinism is asserted on the fly: every thread count must produce the
// same round-accuracy as the num_threads=1 baseline, so this bench doubles
// as a quick invariance smoke test at benchmark scale.
//
// On single-core hosts multi-thread speedups are timesharing artifacts, so
// thread counts above hardware_concurrency are SKIPPED rather than measured
// as noise or failed — the bench degrades gracefully instead of lying.
//
// Usage: parallel_scaling [thread counts...]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/fl/real_engine.h"

namespace floatfl_bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSyncRounds = 30;
constexpr size_t kRealRounds = 3;

struct Measurement {
  double seconds = 0.0;
  double final_accuracy = 0.0;
};

Measurement MeasureSync(size_t num_threads) {
  ExperimentConfig config = PaperConfig();
  config.num_clients = 200;
  config.clients_per_round = 100;
  config.rounds = kSyncRounds;
  config.num_threads = num_threads;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const auto start = Clock::now();
  const ExperimentResult result = engine.Run();
  const auto stop = Clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.final_accuracy = result.global_accuracy;
  return m;
}

Measurement MeasureReal(size_t num_threads) {
  RealFlConfig config;
  config.num_clients = 32;
  config.clients_per_round = 16;
  config.num_classes = 6;
  config.input_dim = 24;
  config.hidden_dims = {48, 24};
  config.sgd.epochs = 2;
  config.seed = 42;
  config.num_threads = num_threads;
  RealFlEngine engine(config);
  const auto start = Clock::now();
  RealRoundStats stats;
  for (size_t round = 0; round < kRealRounds; ++round) {
    stats = engine.RunRound(TechniqueKind::kNone);
  }
  const auto stop = Clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.final_accuracy = stats.test_accuracy;
  return m;
}

// Runs one workload across the thread counts and prints the table
// (speedup = the first count's wall over this wall).
void RunScaling(const char* name, Measurement (*measure)(size_t),
                const std::vector<size_t>& thread_counts, unsigned hw_threads) {
  std::printf("\n== %s ==\n", name);
  std::printf("%-12s %12s %10s %s\n", "num_threads", "seconds", "speedup", "deterministic");
  bool have_base = false;
  double base_seconds = 0.0;
  double base_accuracy = 0.0;
  for (size_t threads : thread_counts) {
    if (threads > 1 && hw_threads > 0 && threads > hw_threads) {
      // Not enough hardware to measure this honestly; skip, don't fail.
      std::printf("%-12zu %12s %10s (skipped: only %u hardware threads)\n", threads, "-", "-",
                  hw_threads);
      continue;
    }
    const Measurement m = measure(threads);
    if (!have_base) {
      have_base = true;
      base_seconds = m.seconds;
      base_accuracy = m.final_accuracy;
    }
    const bool same = m.final_accuracy == base_accuracy;
    std::printf("%-12zu %12.3f %9.2fx %s\n", threads, m.seconds,
                base_seconds > 0.0 ? base_seconds / m.seconds : 0.0, same ? "yes" : "NO!");
    if (!same) {
      std::fprintf(stderr, "DETERMINISM VIOLATION at num_threads=%zu\n", threads);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace floatfl_bench

int main(int argc, char** argv) {
  // Pass explicit thread counts as args, e.g. `parallel_scaling 1 2 4 8`.
  std::vector<size_t> thread_counts;
  for (int i = 1; i < argc; ++i) {
    thread_counts.push_back(static_cast<size_t>(std::atoll(argv[i])));
  }
  if (thread_counts.empty()) {
    thread_counts = {1, 2, 4, 8};
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", hw);
  if (hw < 8) {
    std::printf("note: fewer than 8 hardware threads; counts above %u are skipped\n", hw);
  }
  floatfl_bench::RunScaling("sync engine, 100-client round", floatfl_bench::MeasureSync,
                            thread_counts, hw);
  floatfl_bench::RunScaling("real-training engine round", floatfl_bench::MeasureReal,
                            thread_counts, hw);
  return 0;
}
