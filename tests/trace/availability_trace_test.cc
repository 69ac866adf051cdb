#include "src/trace/availability_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

TEST(AvailabilityTraceTest, PeriodEndIsInTheFuture) {
  AvailabilityTrace trace(1);
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    EXPECT_GT(trace.PeriodEndAfter(t), t);
  }
}

TEST(AvailabilityTraceTest, StateConstantWithinPeriod) {
  AvailabilityTrace trace(2);
  const bool state = trace.IsAvailableAt(1000.0);
  const double end = trace.PeriodEndAfter(1000.0);
  // Probe a point strictly inside the same period.
  const double inside = 1000.0 + (end - 1000.0) * 0.5;
  EXPECT_EQ(trace.IsAvailableAt(inside), state);
}

TEST(AvailabilityTraceTest, StateFlipsAtPeriodEnd) {
  AvailabilityTrace trace(3);
  const bool state = trace.IsAvailableAt(0.0);
  const double end = trace.PeriodEndAfter(0.0);
  EXPECT_EQ(trace.IsAvailableAt(end + 1.0), !state);
}

TEST(AvailabilityTraceTest, AvailableForChecksWholeWindow) {
  AvailabilityTrace trace(4);
  // Find an "on" period and check AvailableFor around its boundary.
  double t = 0.0;
  while (!trace.IsAvailableAt(t)) {
    t = trace.PeriodEndAfter(t) + 1.0;
  }
  const double end = trace.PeriodEndAfter(t);
  const double slack = end - t;
  EXPECT_TRUE(trace.AvailableFor(t, slack * 0.5));
  EXPECT_FALSE(trace.AvailableFor(t, slack + 10.0));
}

TEST(AvailabilityTraceTest, UnavailableMeansNotAvailableForAnything) {
  AvailabilityTrace trace(5);
  double t = 0.0;
  while (trace.IsAvailableAt(t)) {
    t = trace.PeriodEndAfter(t) + 1.0;
  }
  EXPECT_FALSE(trace.AvailableFor(t, 1.0));
}

TEST(AvailabilityTraceTest, LongRunOnFractionMatchesMeans) {
  // mean_on 3000 / mean_off 1000 -> ~75 % availability.
  AvailabilityTrace trace(6, 3000.0, 1000.0);
  int on = 0;
  int total = 0;
  for (double t = 0.0; t < 30.0 * 86400.0; t += 120.0) {
    on += trace.IsAvailableAt(t) ? 1 : 0;
    ++total;
  }
  EXPECT_NEAR(static_cast<double>(on) / total, 0.75, 0.08);
}

TEST(AvailabilityTraceTest, DeterministicForSeed) {
  AvailabilityTrace a(9);
  AvailabilityTrace b(9);
  for (double t = 0.0; t < 86400.0; t += 300.0) {
    EXPECT_EQ(a.IsAvailableAt(t), b.IsAvailableAt(t));
  }
}

// A trace restored to an earlier checkpoint must replay every later query,
// across many on/off period flips, exactly as it answered before the restore.
TEST(AvailabilityTraceTest, RestoreThenRequeryCatchesUp) {
  AvailabilityTrace trace(10);
  (void)trace.IsAvailableAt(1000.0);
  CheckpointWriter w;
  trace.SaveState(w);
  std::vector<bool> before;
  std::vector<double> ends_before;
  for (double t = 2000.0; t < 3.0 * 86400.0; t += 900.0) {
    before.push_back(trace.IsAvailableAt(t));
    ends_before.push_back(trace.PeriodEndAfter(t));
  }
  CheckpointReader r(w.buffer());
  trace.LoadState(r);
  ASSERT_TRUE(r.ok());
  size_t i = 0;
  for (double t = 2000.0; t < 3.0 * 86400.0; t += 900.0, ++i) {
    EXPECT_EQ(before[i], trace.IsAvailableAt(t)) << "t=" << t;
    EXPECT_EQ(ends_before[i], trace.PeriodEndAfter(t)) << "t=" << t;
  }
}

// A segment count read from a damaged archive is bounded by the bytes left:
// a count of 2^60 fails the reader instead of reserving for it.
TEST(AvailabilityTraceTest, HugeSegmentCountFailsTheReader) {
  AvailabilityTrace trace(10);
  (void)trace.IsAvailableAt(1000.0);
  CheckpointWriter w;
  trace.SaveState(w);
  // The segment count follows the six RNG state words.
  CheckpointWriter count;
  count.Size(size_t{1} << 60);
  std::string bytes = w.buffer();
  bytes.replace(6 * sizeof(uint64_t), sizeof(uint64_t), count.buffer());
  CheckpointReader r(bytes);
  trace.LoadState(r);
  EXPECT_FALSE(r.ok());
}

// Each query drops the periods before the one it lands in. Dropping them must
// not change any answer: a trace queried every 5 minutes and a twin queried
// only every 3 hours agree at every shared time over 30 simulated days.
TEST(AvailabilityTraceTest, SparseAndDenseQueriesAgree) {
  AvailabilityTrace dense(11);
  AvailabilityTrace sparse(11);
  constexpr double kSparseEveryS = 3.0 * 3600.0;
  for (double t = 0.0; t < 30.0 * 86400.0; t += 300.0) {
    const bool on = dense.IsAvailableAt(t);
    const double end = dense.PeriodEndAfter(t);
    if (std::fmod(t, kSparseEveryS) == 0.0) {
      EXPECT_EQ(on, sparse.IsAvailableAt(t)) << "t=" << t;
      EXPECT_EQ(end, sparse.PeriodEndAfter(t)) << "t=" << t;
    }
  }
}

// The retained history stays bounded: after 30 days of queries every
// 5 minutes (hundreds of on/off periods) the checkpoint holds only the
// periods from the latest query on.
TEST(AvailabilityTraceTest, RetainedHistoryStaysSmall) {
  AvailabilityTrace trace(12);
  for (double t = 0.0; t < 30.0 * 86400.0; t += 300.0) {
    (void)trace.IsAvailableAt(t);
  }
  CheckpointWriter w;
  trace.SaveState(w);
  EXPECT_LT(w.buffer().size(), 1024u);
}

TEST(AvailabilityTraceDeathTest, QueryBeforeRetainedHistoryAborts) {
  // The monotonic-query contract: the periods before the latest query are
  // gone, so an earlier query aborts instead of answering from another
  // period.
  AvailabilityTrace trace(13);
  (void)trace.IsAvailableAt(2.0 * 86400.0);
  EXPECT_DEATH((void)trace.IsAvailableAt(0.0), "retained history");
}

}  // namespace
}  // namespace floatfl
