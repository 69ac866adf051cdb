#include "src/trace/interference.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/stats.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

TEST(InterferenceTest, NoneLeavesEverythingAvailable) {
  InterferenceModel model(InterferenceScenario::kNone, 1);
  for (double t = 0.0; t < 7200.0; t += 60.0) {
    const ResourceAvailability a = model.At(t);
    EXPECT_DOUBLE_EQ(a.cpu, 1.0);
    EXPECT_DOUBLE_EQ(a.memory, 1.0);
    EXPECT_DOUBLE_EQ(a.network, 1.0);
  }
}

TEST(InterferenceTest, StaticIsConstantOverTime) {
  InterferenceModel model(InterferenceScenario::kStatic, 2);
  const ResourceAvailability first = model.At(0.0);
  EXPECT_LT(first.cpu, 1.0);
  for (double t = 60.0; t < 7200.0; t += 60.0) {
    const ResourceAvailability a = model.At(t);
    EXPECT_DOUBLE_EQ(a.cpu, first.cpu);
    EXPECT_DOUBLE_EQ(a.memory, first.memory);
    EXPECT_DOUBLE_EQ(a.network, first.network);
  }
}

TEST(InterferenceTest, DynamicFluctuatesWithinBounds) {
  InterferenceModel model(InterferenceScenario::kDynamic, 3);
  std::vector<double> cpu;
  for (double t = 0.0; t < 36000.0; t += 15.0) {
    const ResourceAvailability a = model.At(t);
    EXPECT_GE(a.cpu, 0.02);
    EXPECT_LE(a.cpu, 1.0);
    EXPECT_GE(a.memory, 0.02);
    EXPECT_LE(a.memory, 1.0);
    EXPECT_GE(a.network, 0.02);
    EXPECT_LE(a.network, 1.0);
    cpu.push_back(a.cpu);
  }
  // Genuinely dynamic: meaningful spread over time.
  EXPECT_GT(Percentile(cpu, 90.0) - Percentile(cpu, 10.0), 0.05);
}

TEST(InterferenceTest, ScenariosToString) {
  EXPECT_EQ(ToString(InterferenceScenario::kNone), "none");
  EXPECT_EQ(ToString(InterferenceScenario::kStatic), "static");
  EXPECT_EQ(ToString(InterferenceScenario::kDynamic), "dynamic");
}

TEST(InterferenceTest, DifferentClientsDifferentStaticLevels) {
  InterferenceModel a(InterferenceScenario::kStatic, 10);
  InterferenceModel b(InterferenceScenario::kStatic, 11);
  EXPECT_NE(a.At(0.0).cpu, b.At(0.0).cpu);
}

TEST(InterferenceTest, DeterministicForSeed) {
  InterferenceModel a(InterferenceScenario::kDynamic, 21);
  InterferenceModel b(InterferenceScenario::kDynamic, 21);
  for (double t = 0.0; t < 3600.0; t += 15.0) {
    EXPECT_DOUBLE_EQ(a.At(t).cpu, b.At(t).cpu);
    EXPECT_DOUBLE_EQ(a.At(t).network, b.At(t).network);
  }
}

// Restore-then-re-query: see NetworkTraceTest.RestoreThenRequeryCatchesUp.
TEST(InterferenceTest, RestoreThenRequeryCatchesUp) {
  InterferenceModel model(InterferenceScenario::kDynamic, 77);
  (void)model.At(100.0);
  CheckpointWriter w;
  model.SaveState(w);
  const ResourceAvailability at_400 = model.At(400.0);
  CheckpointReader r(w.buffer());
  model.LoadState(r);
  ASSERT_TRUE(r.ok());
  const ResourceAvailability again = model.At(400.0);
  EXPECT_EQ(at_400.cpu, again.cpu);
  EXPECT_EQ(at_400.memory, again.memory);
  EXPECT_EQ(at_400.network, again.network);
}

// Re-query at an unchanged time: see
// NetworkTraceTest.RepeatedQueriesMatchDistinctQueries.
TEST(InterferenceTest, RepeatedQueriesMatchDistinctQueries) {
  for (InterferenceScenario scenario : {InterferenceScenario::kNone,
                                        InterferenceScenario::kStatic,
                                        InterferenceScenario::kDynamic}) {
    InterferenceModel repeated(scenario, 74);
    InterferenceModel distinct(scenario, 74);
    for (double t : {0.0, 12.5, 40.0, 41.0, 300.0, 7200.0}) {
      const ResourceAvailability first = repeated.At(t);
      for (const ResourceAvailability& other : {repeated.At(t), distinct.At(t)}) {
        EXPECT_EQ(first.cpu, other.cpu) << "t=" << t;
        EXPECT_EQ(first.memory, other.memory) << "t=" << t;
        EXPECT_EQ(first.network, other.network) << "t=" << t;
      }
    }
    CheckpointWriter repeated_state;
    repeated.SaveState(repeated_state);
    CheckpointWriter distinct_state;
    distinct.SaveState(distinct_state);
    EXPECT_EQ(repeated_state.buffer(), distinct_state.buffer());
  }
}

// Long catch-up against a twin queried at every step boundary: see
// NetworkTraceTest.LongCatchUpMatchesStepByStep.
TEST(InterferenceTest, LongCatchUpMatchesStepByStep) {
  constexpr int kSteps = 2000;
  constexpr double kStepS = 15.0;
  InterferenceModel caught_up(InterferenceScenario::kDynamic, 80);
  InterferenceModel stepwise(InterferenceScenario::kDynamic, 80);
  ResourceAvailability last;
  for (int k = 1; k <= kSteps; ++k) {
    last = stepwise.At(k * kStepS);
  }
  const ResourceAvailability once = caught_up.At(kSteps * kStepS);
  EXPECT_EQ(last.cpu, once.cpu);
  EXPECT_EQ(last.memory, once.memory);
  EXPECT_EQ(last.network, once.network);
  CheckpointWriter caught_up_state;
  caught_up.SaveState(caught_up_state);
  CheckpointWriter stepwise_state;
  stepwise.SaveState(stepwise_state);
  EXPECT_EQ(caught_up_state.buffer(), stepwise_state.buffer());
}

}  // namespace
}  // namespace floatfl
