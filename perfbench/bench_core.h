// Measurement primitives of the end-to-end benchmark: percentiles with their
// sample counts, an in-memory span log with self time, FNV-1a digests of
// engine results, and forwarding wrappers that time the Selector and
// TuningPolicy interfaces from outside the engines.
#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/failure/durable_file.h"
#include "src/fl/experiment.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/selector.h"

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// The q-th percentile (q in [0, 100]) by linear interpolation between the
// closest ranks — numpy's default. `values` must be non-empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  // True when at least ten samples lie beyond the 95th percentile, so the
  // tail figure is backed by more than a handful of observations.
  bool p95_supported = false;
};
Summary Summarize(const std::vector<double>& values);

// One timed interval. `parent` indexes the span that was open when this one
// began, or -1 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
};

struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  // Duration minus the part of the interval that direct children cover.
  int64_t self_ns = 0;
};

// Spans kept in memory for one thread of control (the engines call the
// selector and the policy from the calling thread only) and written out when
// the benchmark ends. Names must be string literals.
class SpanLog {
 public:
  size_t Begin(const char* name);
  void End(size_t index);
  // Records an already-measured interval; returns its index.
  size_t Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Per-name totals over spans [begin, end).
  std::map<std::string, SpanTotals> Totals(size_t begin, size_t end) const;
  std::map<std::string, SpanTotals> Totals() const { return Totals(0, spans_.size()); }
  // Sum of durations of spans named `prefix*`, over the summed durations of
  // the root spans that contain at least one of them: the layer's share of
  // the rounds it ran in. 0 when no such span exists.
  double ShareOf(const std::string& prefix) const;

  // name,start_ns,end_ns,parent — one line per span.
  void WriteCsv(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  int64_t open_ = -1;
};

// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

// FNV-1a 64 over the raw bytes of the values fed to it.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void F32s(const std::vector<float>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(float));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The deterministic outputs of a surrogate-engine run: accuracy history,
// selected/completed/dropout totals, wire volume and wasted resources.
uint64_t DigestResult(const floatfl::ExperimentResult& r);

std::string Hex(uint64_t v);

// What the traced run learns about one sync round from the wrappers: when it
// started, whom the selector chose, and what the policy decided for each
// (backups drafted by speculation included, after the primaries).
struct RoundRecord {
  size_t round = 0;
  double now_s = 0.0;
  std::vector<size_t> ids;
  std::vector<floatfl::TechniqueKind> techniques;
};

// Forwards every call to `inner`, timing Select as "selection.select" and
// OnOutcome/OnTransfer as "selection.feedback". When `rounds` is non-null,
// each Select appends a RoundRecord.
class TimedSelector final : public floatfl::Selector {
 public:
  TimedSelector(floatfl::Selector& inner, SpanLog& log, std::vector<RoundRecord>* rounds)
      : inner_(inner), log_(log), rounds_(rounds) {}

  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<floatfl::Client>& clients) override;
  void OnOutcome(size_t client_id, bool completed, double duration_s,
                 double deadline_s) override;
  void OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) override;
  double IngestUtility(size_t client_id) const override { return inner_.IngestUtility(client_id); }
  std::string Name() const override { return inner_.Name(); }
  void SaveState(floatfl::CheckpointWriter& w) const override { inner_.SaveState(w); }
  void LoadState(floatfl::CheckpointReader& r) override { inner_.LoadState(r); }

 private:
  floatfl::Selector& inner_;
  SpanLog& log_;
  std::vector<RoundRecord>* rounds_;
};

// Forwards every call to `inner`, timing Decide as "core.decide" and Report
// as "core.report". When `rounds` is non-null and non-empty, each decision is
// appended to the latest RoundRecord.
class TimedPolicy final : public floatfl::TuningPolicy {
 public:
  TimedPolicy(floatfl::TuningPolicy& inner, SpanLog& log, std::vector<RoundRecord>* rounds)
      : inner_(inner), log_(log), rounds_(rounds) {}

  floatfl::TechniqueKind Decide(size_t client_id, const floatfl::ClientObservation& client,
                                const floatfl::GlobalObservation& global) override;
  void Report(size_t client_id, const floatfl::ClientObservation& client,
              const floatfl::GlobalObservation& global, floatfl::TechniqueKind technique,
              bool participated, double accuracy_improvement) override;
  std::string Name() const override { return inner_.Name(); }
  void SaveState(floatfl::CheckpointWriter& w) const override { inner_.SaveState(w); }
  void LoadState(floatfl::CheckpointReader& r) override { inner_.LoadState(r); }

 private:
  floatfl::TuningPolicy& inner_;
  SpanLog& log_;
  std::vector<RoundRecord>* rounds_;
};

// Keeps the last written archive in memory instead of on disk, so checkpoint
// timing measures serialization, not the host's fsync latency.
class MemoryFile final : public floatfl::DurableFile {
 public:
  bool Write(const std::string& path, const std::string& bytes) override;
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
