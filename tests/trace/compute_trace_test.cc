#include "src/trace/compute_trace.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/stats.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

TEST(ComputeTraceTest, SampleDeviceCoversTiers) {
  std::map<DeviceTier, int> counts;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    ++counts[ComputeTrace::SampleDevice(seed).tier()];
  }
  EXPECT_GT(counts[DeviceTier::kFlagship], 0);
  EXPECT_GT(counts[DeviceTier::kMid], 0);
  EXPECT_GT(counts[DeviceTier::kBudget], 0);
  EXPECT_GT(counts[DeviceTier::kIot], 0);
  // Mid tier is the most common per the population mix.
  EXPECT_GT(counts[DeviceTier::kMid], counts[DeviceTier::kIot]);
}

TEST(ComputeTraceTest, PopulationSpansWideSpeedRange) {
  // The AI-Benchmark trace shows a >10x training-speed spread; the synthetic
  // population must reproduce that.
  std::vector<double> speeds;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    speeds.push_back(ComputeTrace::SampleDevice(seed).BaseGflops());
  }
  EXPECT_GT(Percentile(speeds, 95.0) / Percentile(speeds, 5.0), 10.0);
}

TEST(ComputeTraceTest, ThroughputPositiveAndBounded) {
  ComputeTrace trace(DeviceTier::kMid, 20.0, 3);
  for (double t = 0.0; t < 36000.0; t += 30.0) {
    const double g = trace.GflopsAt(t);
    EXPECT_GT(g, 0.0);
    EXPECT_GE(g, 0.05 * 20.0);  // throttling floor
  }
}

TEST(ComputeTraceTest, DriftChangesThroughputOverTime) {
  ComputeTrace trace(DeviceTier::kFlagship, 50.0, 5);
  const double early = trace.GflopsAt(0.0);
  bool changed = false;
  for (double t = 60.0; t < 7200.0; t += 60.0) {
    if (std::abs(trace.GflopsAt(t) - early) > 1.0) {
      changed = true;
      break;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(ComputeTraceTest, MemoryCapacityPositive) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    const ComputeTrace device = ComputeTrace::SampleDevice(seed);
    EXPECT_GT(device.MemoryGb(), 0.2);
    EXPECT_LT(device.MemoryGb(), 64.0);
  }
}

TEST(ComputeTraceTest, DeterministicForSeed) {
  ComputeTrace a = ComputeTrace::SampleDevice(77);
  ComputeTrace b = ComputeTrace::SampleDevice(77);
  EXPECT_EQ(a.tier(), b.tier());
  EXPECT_DOUBLE_EQ(a.BaseGflops(), b.BaseGflops());
  for (double t = 0.0; t < 3600.0; t += 30.0) {
    EXPECT_DOUBLE_EQ(a.GflopsAt(t), b.GflopsAt(t));
  }
}

// Restore-then-re-query: see NetworkTraceTest.RestoreThenRequeryCatchesUp.
TEST(ComputeTraceTest, RestoreThenRequeryCatchesUp) {
  ComputeTrace trace = ComputeTrace::SampleDevice(76);
  (void)trace.GflopsAt(100.0);
  CheckpointWriter w;
  trace.SaveState(w);
  const double at_500 = trace.GflopsAt(500.0);
  CheckpointReader r(w.buffer());
  trace.LoadState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(at_500, trace.GflopsAt(500.0));
}

// Re-query at an unchanged time: see
// NetworkTraceTest.RepeatedQueriesMatchDistinctQueries.
TEST(ComputeTraceTest, RepeatedQueriesMatchDistinctQueries) {
  ComputeTrace repeated = ComputeTrace::SampleDevice(73);
  ComputeTrace distinct = ComputeTrace::SampleDevice(73);
  for (double t : {0.0, 12.5, 40.0, 41.0, 300.0, 7200.0}) {
    const double first = repeated.GflopsAt(t);
    EXPECT_EQ(first, repeated.GflopsAt(t)) << "t=" << t;
    EXPECT_EQ(first, repeated.GflopsAt(t)) << "t=" << t;
    EXPECT_EQ(first, distinct.GflopsAt(t)) << "t=" << t;
  }
  CheckpointWriter repeated_state;
  repeated.SaveState(repeated_state);
  CheckpointWriter distinct_state;
  distinct.SaveState(distinct_state);
  EXPECT_EQ(repeated_state.buffer(), distinct_state.buffer());
}

// Long catch-up against a twin queried at every step boundary: see
// NetworkTraceTest.LongCatchUpMatchesStepByStep.
TEST(ComputeTraceTest, LongCatchUpMatchesStepByStep) {
  constexpr int kSteps = 2000;
  constexpr double kStepS = 30.0;
  ComputeTrace caught_up = ComputeTrace::SampleDevice(79);
  ComputeTrace stepwise = ComputeTrace::SampleDevice(79);
  double last = 0.0;
  for (int k = 1; k <= kSteps; ++k) {
    last = stepwise.GflopsAt(k * kStepS);
  }
  EXPECT_EQ(last, caught_up.GflopsAt(kSteps * kStepS));
  CheckpointWriter caught_up_state;
  caught_up.SaveState(caught_up_state);
  CheckpointWriter stepwise_state;
  stepwise.SaveState(stepwise_state);
  EXPECT_EQ(caught_up_state.buffer(), stepwise_state.buffer());
}

}  // namespace
}  // namespace floatfl
