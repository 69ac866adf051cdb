// Tests of the benchmark's own arithmetic and plumbing: percentiles and their
// sample counts, span self time and shares, digest stability, and that the
// forwarding wrappers leave engine results byte-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/bench_core.h"
#include "perfbench/workloads.h"
#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/sync_engine.h"
#include "src/selection/oort_selector.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 95.0), 4.8);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0}), 1.5);
}

TEST(PercentileTest, SummaryReportsCountsAndTailSupport) {
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) {
    v.push_back(static_cast<double>(i));
  }
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 199u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_FALSE(s.p95_supported);  // 9.95 samples beyond p95
  v.push_back(200.0);
  s = Summarize(v);
  EXPECT_EQ(s.count, 200u);
  EXPECT_TRUE(s.p95_supported);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanLog log;
  const size_t root = log.Add("round", 0, 100, -1);
  // Overlapping children cover [10, 50]; the last one is clipped to [90, 100].
  const size_t a = log.Add("child", 10, 30, static_cast<int64_t>(root));
  log.Add("child", 20, 50, static_cast<int64_t>(root));
  log.Add("child", 90, 120, static_cast<int64_t>(root));
  // A grandchild counts against its parent only.
  log.Add("grandchild", 12, 18, static_cast<int64_t>(a));
  const auto totals = log.Totals();
  EXPECT_EQ(totals.at("round").count, 1u);
  EXPECT_EQ(totals.at("round").total_ns, 100);
  EXPECT_EQ(totals.at("round").self_ns, 50);
  EXPECT_EQ(totals.at("child").count, 3u);
  EXPECT_EQ(totals.at("child").total_ns, 20 + 30 + 30);
  EXPECT_EQ(totals.at("child").self_ns, 20 + 30 + 30 - 6);
  EXPECT_EQ(totals.at("grandchild").self_ns, 6);
}

TEST(SpanLogTest, TotalsOfASliceAndShares) {
  SpanLog log;
  const size_t r1 = log.Add("fl.round", 0, 100, -1);
  log.Add("selection.select", 0, 10, static_cast<int64_t>(r1));
  log.Add("core.decide", 10, 15, static_cast<int64_t>(r1));
  const size_t r2 = log.Add("fl.round", 100, 300, -1);
  log.Add("core.decide", 100, 115, static_cast<int64_t>(r2));
  // Selection ran in the first round only: 10 of its 100 ns.
  EXPECT_DOUBLE_EQ(log.ShareOf("selection."), 0.1);
  // The policy ran in both: 20 of 300 ns.
  EXPECT_DOUBLE_EQ(log.ShareOf("core."), 20.0 / 300.0);
  EXPECT_DOUBLE_EQ(log.ShareOf("absent."), 0.0);
  const auto second = log.Totals(3, 5);
  EXPECT_EQ(second.at("fl.round").count, 1u);
  EXPECT_EQ(second.at("fl.round").self_ns, 185);
  EXPECT_EQ(second.count("selection.select"), 0u);
}

TEST(SpanLogTest, BeginEndNestUnderTheInnermostOpenSpan) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner");
  }
  ScopedSpan after(&log, "after");
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, -1);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

TEST(DigestTest, IsFnv1aOverTheBytes) {
  Digest d;
  d.Bytes("a", 1);
  EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cULL);  // FNV-1a 64 of "a"
  EXPECT_EQ(Hex(0xabcULL), "0000000000000abc");
}

Part SmallSyncPart(uint64_t seed) {
  Workload w;
  EXPECT_TRUE(MakeWorkload("paper_fig12", seed, 1, 1, &w));
  Part part = w.parts.front();
  part.sim.num_clients = 40;
  part.sim.clients_per_round = 8;
  part.sim.rounds = 20;
  part.rounds = 20;
  return part;
}

TEST(DigestTest, StableAcrossIdenticalRunsAndSensitiveToTheSeed) {
  const Part part = SmallSyncPart(5);
  const uint64_t first = RunPart(part, RunOptions()).digest;
  EXPECT_EQ(RunPart(part, RunOptions()).digest, first);
  EXPECT_NE(RunPart(SmallSyncPart(6), RunOptions()).digest, first);
}

TEST(DigestTest, EveryWorkloadPartIsDeterministicOnAShortPrefix) {
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    ASSERT_TRUE(MakeWorkload(name, 3, 2, 1, &w));
    for (const Part& part : w.parts) {
      RunOptions o;
      o.round_limit = 5;
      const uint64_t a = RunPart(part, o).digest;
      o.threads = 1;
      EXPECT_EQ(RunPart(part, o).digest, a) << name << "/" << part.name;
    }
  }
}

TEST(WrapperTest, ForwardingLeavesEngineStateByteIdentical) {
  const Part part = SmallSyncPart(9);
  auto state_after = [&](bool wrapped, SpanLog* log, std::vector<RoundRecord>* rounds) {
    floatfl::OortSelector selector(part.sim.seed + 202, part.sim.num_clients);
    auto policy = floatfl::FloatController::MakeDefault(part.sim.seed, part.sim.rounds);
    TimedSelector timed_selector(selector, *log, rounds);
    TimedPolicy timed_policy(*policy, *log, rounds);
    floatfl::SyncEngine engine(
        part.sim, wrapped ? static_cast<floatfl::Selector*>(&timed_selector) : &selector,
        wrapped ? static_cast<floatfl::TuningPolicy*>(&timed_policy) : policy.get());
    for (size_t r = 0; r < part.rounds; ++r) {
      engine.RunRound(r);
    }
    floatfl::CheckpointWriter w;
    engine.SaveState(w);
    return w.buffer();
  };
  SpanLog unused;
  SpanLog log;
  std::vector<RoundRecord> rounds;
  const std::string plain = state_after(false, &unused, nullptr);
  const std::string wrapped = state_after(true, &log, &rounds);
  EXPECT_EQ(plain, wrapped);
  EXPECT_TRUE(unused.spans().empty());
  ASSERT_EQ(rounds.size(), part.rounds);
  const auto totals = log.Totals();
  EXPECT_EQ(totals.at("selection.select").count, part.rounds);
  size_t decisions = 0;
  for (const RoundRecord& r : rounds) {
    EXPECT_GE(r.techniques.size(), r.ids.size());
    decisions += r.techniques.size();
  }
  EXPECT_EQ(totals.at("core.decide").count, decisions);
  EXPECT_GT(totals.at("core.report").count, 0u);
}

TEST(WrapperTest, TracedRunsReproduceUntracedDigestsOnEveryEngine) {
  for (const std::string& name : {std::string("paper_fig12"), std::string("real_mlp")}) {
    Workload w;
    ASSERT_TRUE(MakeWorkload(name, 4, 1, 1, &w));
    for (const Part& part : w.parts) {
      RunOptions o;
      o.round_limit = 5;
      const uint64_t plain = RunPart(part, o).digest;
      SpanLog log;
      o.log = &log;
      EXPECT_EQ(RunPart(part, o).digest, plain) << name << "/" << part.name;
      EXPECT_EQ(log.Totals().at(part.span).count, 5u);
    }
  }
}

TEST(CheckpointProbeTest, RestoreIntoAFreshEngineIsIdentical) {
  const Part part = SmallSyncPart(11);
  CheckpointProbe probe;
  probe.workdir = testing::TempDir();
  RunOptions o;
  o.checkpoint = &probe;
  RunPart(part, o);
  EXPECT_TRUE(probe.restore_identical);
  EXPECT_EQ(probe.save_ms.size(), 3u);
  EXPECT_GT(probe.archive_mb, 0.0);
}

TEST(MemoryFileTest, KeepsTheLastWrite) {
  MemoryFile f;
  EXPECT_TRUE(f.Write("x", "first"));
  EXPECT_TRUE(f.Write("y", "second"));
  EXPECT_EQ(f.bytes(), "second");
}

}  // namespace
}  // namespace perfbench
