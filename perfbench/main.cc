// End-to-end benchmark of the FLOAT reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--goldens <file>] [--workdir <dir>]
//   perfbench --record <first_seed> <last_seed>
//
// Each workload is a closed loop: one engine run at a time, each round
// starting when the previous one ends, repeated from construction onwards
// until the time budget is spent. Every engine run's deterministic digest is
// checked against the recorded goldens (or, for a seed without one, against
// the run's first repeat). --trace 0 prints the end-to-end metrics; --trace 1
// prints the per-layer metrics of a separate traced run. The last line of
// stdout is one JSON object; the exit code is 1 when any digest is off.
// README.md in this directory describes the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_core.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/fl/observation.h"
#include "src/fl/sync_engine.h"
#include "src/selection/random_selector.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"rounds_per_s", "1/s"}, {"round_ms_p50", "ms"}, {"round_ms_p95", "ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},  {"ok_frac", "frac"},
};

const std::vector<MetricDef> kPerLayer = {
    {"selection.select_ms", "ms"},
    {"selection.feedback_us", "us"},
    {"selection.share", "frac"},
    {"core.decide_us", "us"},
    {"core.report_us", "us"},
    {"core.share", "frac"},
    {"fl.round_self_ms", "ms"},
    {"fl.observe_us", "us"},
    {"fl.simulate_us", "us"},
    {"fl.replay_explained_frac", "frac"},
    {"fl.async_version_ms", "ms"},
    {"fl.build_population_ms", "ms"},
    {"fl.evaluate_ms", "ms"},
    {"fl.completed_frac", "frac"},
    {"fl.client_rounds", "count"},
    {"trace.network_ns", "ns"},
    {"trace.compute_ns", "ns"},
    {"trace.interference_ns", "ns"},
    {"models.round_update_us", "us"},
    {"net.transfer_us", "us"},
    {"net.retransmit_frac", "frac"},
    {"admission.admit_us", "us"},
    {"failure.ckpt_save_ms", "ms"},
    {"failure.ckpt_restore_ms", "ms"},
    {"failure.ckpt_mb", "MB"},
    {"agg.fedavg_ms", "ms"},
    {"agg.trimmed_ms", "ms"},
    {"nn.matmul_gflops", "GFLOP/s"},
    {"nn.matmul_nt_gflops", "GFLOP/s"},
    {"nn.matmul_tn_gflops", "GFLOP/s"},
    {"nn.train_samples_per_s", "1/s"},
    {"opt.quantize_mb_s", "MB/s"},
    {"opt.prune_mb_s", "MB/s"},
    {"opt.compress_mb_s", "MB/s"},
    {"sim.parallel_speedup", "x"},
    {"bench.tracing_overhead_frac", "frac"},
};

// The machine fingerprint every result is labelled with.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Digest bookkeeping: every engine run and every consistency check is one
// attempt; a mismatch is one failure.
class Checker {
 public:
  explicit Checker(const std::string& workload) : workload_(workload) {}

  // Returns false when `path` exists but is malformed.
  bool LoadGoldens(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      return true;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      std::istringstream fields(line);
      std::string workload, part, digest;
      uint64_t seed = 0;
      if (!(fields >> workload >> part >> seed >> digest) || digest.size() != 16) {
        std::cerr << "malformed golden line: " << line << "\n";
        return false;
      }
      if (workload == workload_) {
        expected_[Key(part, seed)] = std::strtoull(digest.c_str(), nullptr, 16);
      }
    }
    return true;
  }

  bool Covers(const Workload& w) const {
    for (const Part& part : w.parts) {
      if (expected_.count(Key(part.name, part.seed)) == 0) {
        return false;
      }
    }
    return true;
  }

  void CheckPart(const Part& part, uint64_t digest) {
    ++attempted_;
    const std::string key = Key(part.name, part.seed);
    auto it = expected_.find(key);
    if (it == expected_.end()) {
      // No golden for this input seed: the first run becomes the reference,
      // so later repeats must reproduce it.
      expected_[key] = digest;
      return;
    }
    if (it->second != digest) {
      ++failed_;
      std::cerr << "DIGEST MISMATCH " << workload_ << "/" << key << ": expected "
                << Hex(it->second) << ", got " << Hex(digest) << "\n";
    }
  }

  void CheckThat(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "CHECK FAILED " << workload_ << ": " << what << "\n";
    }
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  static std::string Key(const std::string& part, uint64_t seed) {
    return part + " " + std::to_string(seed);
  }

  std::string workload_;
  std::map<std::string, uint64_t> expected_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// One pass over every part of a workload.
struct Repeat {
  std::vector<PartRun> runs;
  double wall_s = 0.0;
};

// Traced when `log` is non-null; a non-null `checkpoint` probes the
// checkpoint of the first part's final state.
Repeat RunRepeat(const Workload& w, Checker& checker, SpanLog* log = nullptr,
                 CheckpointProbe* checkpoint = nullptr) {
  Repeat rep;
  const int64_t start = NowNs();
  for (size_t i = 0; i < w.parts.size(); ++i) {
    const Part& part = w.parts[i];
    RunOptions o;
    o.log = log;
    if (i == 0) {
      o.checkpoint = checkpoint;
    }
    rep.runs.push_back(RunPart(part, o));
    checker.CheckPart(part, rep.runs.back().digest);
  }
  rep.wall_s = SecondsSince(start);
  return rep;
}

double RoundsPerSecond(const std::vector<Repeat>& reps) {
  double aggregations = 0.0;
  double loop_s = 0.0;
  for (const Repeat& r : reps) {
    for (const PartRun& p : r.runs) {
      aggregations += static_cast<double>(p.aggregations);
      loop_s += p.loop_s;
    }
  }
  return loop_s > 0.0 ? aggregations / loop_s : 0.0;
}

// Untraced repeats while the next one would end less than half a repeat
// after `budget_s`, so that a run lasts about `budget_s` on average; at
// least one.
std::vector<Repeat> RunUntilBudget(const Workload& w, Checker& checker, double budget_s) {
  const int64_t start = NowNs();
  std::vector<Repeat> reps;
  do {
    reps.push_back(RunRepeat(w, checker));
  } while (SecondsSince(start) + 0.5 * reps.back().wall_s <= budget_s);
  return reps;
}

void PrintJson(bool correct, size_t attempted, size_t failed, const std::vector<MetricDef>& defs,
               const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::cerr << "internal error: metric " << defs[i].name << " has no finite value\n";
      std::exit(3);
    }
    out << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << it->second
        << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintTable(const std::vector<MetricDef>& defs, const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    std::printf("  %-30s %14.6g %s\n", d.name, values.at(d.name), d.unit);
  }
}

std::map<std::string, double> EndToEnd(const Workload& w, Checker& checker, double seconds) {
  const std::vector<Repeat> reps = RunUntilBudget(w, checker, seconds);
  std::vector<double> round_ms;
  std::vector<double> setup_s;
  for (const Repeat& r : reps) {
    // One setup sample per input set: its parts' constructions summed.
    std::map<uint64_t, double> per_input;
    for (size_t i = 0; i < r.runs.size(); ++i) {
      per_input[w.parts[i].seed] += r.runs[i].setup_s;
      round_ms.insert(round_ms.end(), r.runs[i].round_ms.begin(), r.runs[i].round_ms.end());
    }
    for (const auto& [seed, s] : per_input) {
      setup_s.push_back(s);
    }
  }
  const Summary rounds = Summarize(round_ms);
  std::printf("repeats: %zu, each over %zu engine runs; aggregation samples: %zu; p95 %s\n",
              reps.size(), w.parts.size(), rounds.count,
              rounds.p95_supported ? "has >= 10 samples beyond it" : "has < 10 samples beyond it");
  std::map<std::string, double> m;
  m["rounds_per_s"] = RoundsPerSecond(reps);
  m["round_ms_p50"] = rounds.p50;
  m["round_ms_p95"] = rounds.p95;
  m["setup_s"] = Median(setup_s);
  m["peak_rss_mb"] = PeakRssMb();
  m["ok_frac"] = 1.0 - static_cast<double>(checker.failed()) /
                           static_cast<double>(std::max<size_t>(1, checker.attempted()));
  return m;
}

double MeanMs(const std::map<std::string, SpanTotals>& t, const std::string& name) {
  auto it = t.find(name);
  return it == t.end() || it->second.count == 0
             ? 0.0
             : static_cast<double>(it->second.total_ns) * 1e-6 /
                   static_cast<double>(it->second.count);
}

// Times ObserveClient and the 5-argument SimulateClient on a shadow engine
// (same config and seed) at the recorded rounds' selected ids and clock.
struct ReplayTimes {
  double observe_ns = 0.0;
  double simulate_ns = 0.0;
  size_t calls = 0;
};

ReplayTimes Replay(floatfl::ExperimentConfig config, const std::vector<RoundRecord>& records) {
  config.num_threads = 1;
  floatfl::RandomSelector selector(config.seed);
  floatfl::SyncEngine shadow(config, &selector, nullptr);
  const floatfl::PopulationReference ref = floatfl::ComputePopulationReference(shadow.clients());
  ReplayTimes times;
  for (const RoundRecord& rec : records) {
    for (size_t i = 0; i < rec.ids.size(); ++i) {
      floatfl::Client& client = shadow.clients()[rec.ids[i]];
      const floatfl::TechniqueKind technique =
          i < rec.techniques.size() ? rec.techniques[i] : floatfl::TechniqueKind::kNone;
      const int64_t t0 = NowNs();
      (void)floatfl::ObserveClient(client, rec.now_s, ref);
      const int64_t t1 = NowNs();
      (void)shadow.SimulateClient(client, rec.round, rec.now_s, technique,
                                  floatfl::FaultDecision());
      const int64_t t2 = NowNs();
      times.observe_ns += static_cast<double>(t1 - t0);
      times.simulate_ns += static_cast<double>(t2 - t1);
      ++times.calls;
    }
  }
  return times;
}

std::map<std::string, double> PerLayer(const Workload& w, Checker& checker, double seconds,
                                       size_t threads, const std::string& workdir) {
  std::map<std::string, double> m;
  const int64_t start = NowNs();

  // A warm-up repeat (its round time sizes the thread-scaling prefix below),
  // then traced and untraced repeats in alternation, so the tracing overhead
  // compares like with like even while the host's speed drifts. Traced
  // repeats wrap the selector and the policy and put a span around each
  // aggregation; the first also probes the checkpoint of the first part's
  // final state.
  const double mean_round_s = 1.0 / RoundsPerSecond({RunRepeat(w, checker)});
  SpanLog log;
  CheckpointProbe checkpoint;
  checkpoint.workdir = workdir;
  std::vector<Repeat> traced;
  std::vector<Repeat> plain;
  do {
    traced.push_back(RunRepeat(w, checker, &log, traced.empty() ? &checkpoint : nullptr));
    plain.push_back(RunRepeat(w, checker));
  } while (SecondsSince(start) + traced.back().wall_s + plain.back().wall_s <= 0.45 * seconds);
  checker.CheckThat(checkpoint.restore_identical, "restore of the final archive is not identical");
  size_t first_selected = 0;
  size_t first_completed = 0;
  for (const PartRun& p : traced.front().runs) {
    first_selected += p.selected;
    first_completed += p.completed;
  }

  // The replay's rounds: the first sync part, or for a workload without one
  // an Oort+FLOAT sync probe at its own N and K, traced for 100 rounds at
  // one thread. The replay calls the client path serially; at more threads
  // SimulateClient runs in parallel inside the round, and serial time over
  // that round's self time would not be a share. A workload without FedBuff
  // gets a FedBuff probe too. Both go to a log of their own.
  const Part* first_sync = nullptr;
  bool has_async = false;
  for (const Part& p : w.parts) {
    if (p.kind == EngineKind::kSync && first_sync == nullptr) {
      first_sync = &p;
    }
    has_async = has_async || p.kind == EngineKind::kAsync;
  }
  Part replay_part;
  if (first_sync != nullptr) {
    replay_part = *first_sync;
  } else {
    replay_part.name = "probe_sync";
    replay_part.sim = w.probe_sim;
    replay_part.selector = "oort";
    replay_part.rounds = w.probe_sim.rounds;
  }
  SpanLog probe_log;
  std::vector<RoundRecord> replay_rounds;
  {
    RunOptions o;
    o.log = &probe_log;
    o.rounds = &replay_rounds;
    o.round_limit = 100;
    o.threads = 1;
    RunPart(replay_part, o);
  }
  if (!has_async) {
    Part probe;
    probe.name = "probe_async";
    probe.kind = EngineKind::kAsync;
    probe.sim = AsyncCompatible(w.probe_sim);
    probe.rounds = w.probe_sim.rounds;
    probe.span = "fl.async_version";
    RunOptions o;
    o.log = &probe_log;
    o.round_limit = 50;
    RunPart(probe, o);
  }

  const std::map<std::string, SpanTotals> totals = log.Totals();
  const std::map<std::string, SpanTotals> probe_totals = probe_log.Totals();
  const SpanLog& selection_log = first_sync != nullptr ? log : probe_log;
  const std::map<std::string, SpanTotals>& selection_totals =
      first_sync != nullptr ? totals : probe_totals;
  m["selection.select_ms"] = MeanMs(selection_totals, "selection.select");
  m["selection.feedback_us"] = 1e3 * MeanMs(selection_totals, "selection.feedback");
  m["selection.share"] = selection_log.ShareOf("selection.");
  m["core.decide_us"] = 1e3 * MeanMs(totals, "core.decide");
  m["core.report_us"] = 1e3 * MeanMs(totals, "core.report");
  m["core.share"] = log.ShareOf("core.");
  {
    const SpanTotals& round = totals.at("fl.round");
    m["fl.round_self_ms"] =
        static_cast<double>(round.self_ns) * 1e-6 / static_cast<double>(round.count);
  }
  m["fl.async_version_ms"] = MeanMs(has_async ? totals : probe_totals, "fl.async_version");
  m["fl.completed_frac"] = static_cast<double>(first_completed) /
                           static_cast<double>(std::max<size_t>(1, first_selected));
  m["fl.client_rounds"] = static_cast<double>(first_selected);

  {
    const ReplayTimes replay = Replay(replay_part.sim, replay_rounds);
    const double calls = static_cast<double>(std::max<size_t>(1, replay.calls));
    m["fl.observe_us"] = replay.observe_ns * 1e-3 / calls;
    m["fl.simulate_us"] = replay.simulate_ns * 1e-3 / calls;
    // Clamped: where little else runs in a round (real_mlp's probe), timer
    // noise can carry the ratio a few percent past 1.
    m["fl.replay_explained_frac"] =
        std::min(1.0, (replay.observe_ns + replay.simulate_ns) /
                          static_cast<double>(probe_totals.at("fl.round").self_ns));
  }

  m["failure.ckpt_save_ms"] = Median(checkpoint.save_ms);
  m["failure.ckpt_restore_ms"] = checkpoint.restore_ms;
  m["failure.ckpt_mb"] = checkpoint.archive_mb;

  // Thread scaling on a prefix of the first part; the digests must agree.
  {
    const Part& part = w.parts.front();
    const double prefix_budget_s = 0.04 * seconds;
    const size_t prefix = std::clamp<size_t>(
        static_cast<size_t>(prefix_budget_s / std::max(1e-6, mean_round_s)), 5, part.rounds);
    double best_1 = 0.0;
    double best_n = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      RunOptions o;
      o.round_limit = prefix;
      o.threads = 1;
      const PartRun one = RunPart(part, o);
      o.threads = threads;
      const PartRun many = RunPart(part, o);
      checker.CheckThat(one.digest == many.digest,
                        "digest differs between 1 and " + std::to_string(threads) + " threads");
      best_1 = std::max(best_1, static_cast<double>(one.aggregations) / one.loop_s);
      best_n = std::max(best_n, static_cast<double>(many.aggregations) / many.loop_s);
    }
    m["sim.parallel_speedup"] = best_n / best_1;
  }
  m["bench.tracing_overhead_frac"] = 1.0 - RoundsPerSecond(traced) / RoundsPerSecond(plain);

  const double used_s = SecondsSince(start);
  ProbeLayers(w, std::max(0.5, 0.2 * seconds), &m);
  std::printf("traced run: 1 warm-up, %zu untraced + %zu traced repeats, %zu + %zu spans, "
              "%.1f s before the layer probes\n",
              plain.size(), traced.size(), log.size(), probe_log.size(), used_s);

  std::ofstream spans(workdir + "/spans_" + w.name + ".csv");
  log.WriteCsv(spans);
  std::ofstream probe_spans(workdir + "/probe_spans_" + w.name + ".csv");
  probe_log.WriteCsv(probe_spans);
  return m;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--goldens <file>] [--workdir <dir>]\n"
               "       perfbench --record <first_seed> <last_seed>\n";
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

// Prints one golden line per workload part and input seed, for every input
// seed that an untraced run with a seed in [first, last] covers.
int Record(uint64_t first, uint64_t last, size_t threads) {
  for (const std::string& name : WorkloadNames()) {
    for (uint64_t seed = first; seed <= last; ++seed) {
      Workload w;
      MakeWorkload(name, seed, threads, kInputSets, &w);
      for (const Part& part : w.parts) {
        const PartRun run = RunPart(part, RunOptions());
        std::cout << name << " " << part.name << " " << part.seed << " " << Hex(run.digest)
                  << std::endl;
      }
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to report numbers from an unoptimised build\n";
  return 2;
#endif
  // Every engine runs at min(4, nproc) threads.
  const size_t threads = std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  std::string workload_name;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  std::string goldens;
  std::string workdir = ".";
  uint64_t record_first = 0;
  uint64_t record_last = 0;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!ParseU64(argv[++i], &seed)) return Usage();
    } else if (arg == "--seconds" && has_value) {
      if (!ParseU64(argv[++i], &seconds)) return Usage();
    } else if (arg == "--trace" && has_value) {
      if (!ParseU64(argv[++i], &trace)) return Usage();
    } else if (arg == "--goldens" && has_value) {
      goldens = argv[++i];
    } else if (arg == "--workdir" && has_value) {
      workdir = argv[++i];
    } else if (arg == "--record" && i + 2 < argc) {
      record = true;
      if (!ParseU64(argv[++i], &record_first) || !ParseU64(argv[++i], &record_last)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (record) {
    return Record(record_first, record_last, threads);
  }
  // The traced run needs no averaging over inputs: it uses the first set.
  Workload w;
  if (trace > 1 || seconds == 0 ||
      !MakeWorkload(workload_name, seed, threads, trace == 0 ? kInputSets : 1, &w)) {
    return Usage();
  }
  Checker checker(w.name);
  if (!goldens.empty() && !checker.LoadGoldens(goldens)) {
    return 2;
  }

#ifdef __clang__
  const char* compiler = "clang " __VERSION__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("machine: nproc=%u cpu=\"%s\" compiler=\"%s\" optimized=yes threads=%zu\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), compiler, threads);
  std::printf("workload %s seed %llu trace %llu: %s\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(trace),
              checker.Covers(w) ? "checking recorded golden digests"
                                : "no golden digests for these inputs; checking that every "
                                  "repeat reproduces the first");
  const std::map<std::string, double> metrics =
      trace == 0 ? EndToEnd(w, checker, static_cast<double>(seconds))
                 : PerLayer(w, checker, static_cast<double>(seconds), threads, workdir);
  const std::vector<MetricDef>& defs = trace == 0 ? kEndToEnd : kPerLayer;
  PrintTable(defs, metrics);
  const bool correct = checker.failed() == 0;
  PrintJson(correct, checker.attempted(), checker.failed(), defs, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
