#include "perfbench/bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  FLOATFL_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  s.p50 = Percentile(values, 50.0);
  s.p95 = Percentile(values, 95.0);
  s.p95_supported = static_cast<double>(values.size()) * 0.05 >= 10.0;
  return s;
}

size_t SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  FLOATFL_CHECK(index < spans_.size());
  spans_[index].end_ns = NowNs();
  open_ = spans_[index].parent;
}

size_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent) {
  FLOATFL_CHECK(parent < static_cast<int64_t>(spans_.size()));
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return spans_.size() - 1;
}

std::map<std::string, SpanTotals> SpanLog::Totals(size_t begin, size_t end) const {
  FLOATFL_CHECK(begin <= end && end <= spans_.size());
  // Children of each span in the slice, as intervals.
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (size_t i = begin; i < end; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int64_t>(begin)) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = begin; i < end; ++i) {
    const Span& s = spans_[i];
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(static_cast<int64_t>(i));
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0;
      int64_t cur_end = 0;
      bool open = false;
      for (const auto& [a_raw, b_raw] : iv) {
        const int64_t a = std::max(a_raw, s.start_ns);
        const int64_t b = std::min(b_raw, s.end_ns);
        if (b <= a) {
          continue;
        }
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) {
            covered += cur_end - cur_start;
          }
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) {
        covered += cur_end - cur_start;
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - covered;
  }
  return totals;
}

double SpanLog::ShareOf(const std::string& prefix) const {
  std::vector<char> root_hit(spans_.size(), 0);
  int64_t part_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string(s.name).rfind(prefix, 0) != 0) {
      continue;
    }
    part_ns += s.end_ns - s.start_ns;
    int64_t root = static_cast<int64_t>(i);
    while (spans_[root].parent >= 0) {
      root = spans_[root].parent;
    }
    root_hit[root] = 1;
  }
  int64_t whole_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root_hit[i] != 0) {
      whole_ns += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return whole_ns > 0 ? static_cast<double>(part_ns) / static_cast<double>(whole_ns) : 0.0;
}

void SpanLog::WriteCsv(std::ostream& out) const {
  out << "name,start_ns,end_ns,parent\n";
  for (const Span& s : spans_) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent << '\n';
  }
}

void Digest::Bytes(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ ^= static_cast<uint64_t>(p[i]);
    h_ *= 0x100000001b3ULL;
  }
}

uint64_t DigestResult(const floatfl::ExperimentResult& r) {
  Digest d;
  d.U64(r.accuracy_history.size());
  for (double a : r.accuracy_history) {
    d.F64(a);
  }
  d.F64(r.accuracy_avg);
  d.U64(r.total_selected);
  d.U64(r.total_completed);
  d.U64(r.total_dropouts);
  d.U64(r.dropout_breakdown.Total());
  d.F64(r.wire_mb);
  d.F64(r.wasted.compute_hours);
  d.F64(r.wasted.comm_hours);
  d.F64(r.wasted.memory_tb);
  return d.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<size_t> TimedSelector::Select(size_t round, double now_s, size_t k,
                                          std::vector<floatfl::Client>& clients) {
  std::vector<size_t> ids;
  {
    ScopedSpan span(&log_, "selection.select");
    ids = inner_.Select(round, now_s, k, clients);
  }
  if (rounds_ != nullptr) {
    RoundRecord record;
    record.round = round;
    record.now_s = now_s;
    record.ids = ids;
    rounds_->push_back(std::move(record));
  }
  return ids;
}

void TimedSelector::OnOutcome(size_t client_id, bool completed, double duration_s,
                              double deadline_s) {
  ScopedSpan span(&log_, "selection.feedback");
  inner_.OnOutcome(client_id, completed, duration_s, deadline_s);
}

void TimedSelector::OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) {
  ScopedSpan span(&log_, "selection.feedback");
  inner_.OnTransfer(client_id, effective_mbps, nominal_mbps);
}

floatfl::TechniqueKind TimedPolicy::Decide(size_t client_id,
                                           const floatfl::ClientObservation& client,
                                           const floatfl::GlobalObservation& global) {
  floatfl::TechniqueKind technique;
  {
    ScopedSpan span(&log_, "core.decide");
    technique = inner_.Decide(client_id, client, global);
  }
  if (rounds_ != nullptr && !rounds_->empty()) {
    rounds_->back().techniques.push_back(technique);
  }
  return technique;
}

void TimedPolicy::Report(size_t client_id, const floatfl::ClientObservation& client,
                         const floatfl::GlobalObservation& global,
                         floatfl::TechniqueKind technique, bool participated,
                         double accuracy_improvement) {
  ScopedSpan span(&log_, "core.report");
  inner_.Report(client_id, client, global, technique, participated, accuracy_improvement);
}

bool MemoryFile::Write(const std::string& path, const std::string& bytes) {
  (void)path;
  bytes_ = bytes;
  return true;
}

}  // namespace perfbench
