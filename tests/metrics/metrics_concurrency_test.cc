// Concurrency guarantees of the metrics accumulators.
//
// The engines record outcomes sequentially (index-ordered merge after the
// parallel fan-out) so their floating-point totals are reproducible, but
// Record() itself is documented mutex-safe for concurrent callers — which
// these tests exercise with real contention. Values are chosen so every
// double sum is exact regardless of accumulation order (integral hours),
// making the assertions independent of scheduling.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/fl/experiment.h"
#include "src/metrics/participation_tracker.h"
#include "src/metrics/resource_accountant.h"
#include "src/sim/thread_pool.h"

namespace floatfl {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kRecordsPerThread = 2000;

TEST(ParticipationTrackerConcurrencyTest, ConcurrentRecordsAllLand) {
  constexpr size_t kClients = 16;
  ParticipationTracker tracker(kClients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, t] {
      for (size_t i = 0; i < kRecordsPerThread; ++i) {
        const size_t client = (t * kRecordsPerThread + i) % kClients;
        const TechniqueKind technique =
            (i % 2 == 0) ? TechniqueKind::kNone : TechniqueKind::kQuant8;
        tracker.Record(client, technique, /*completed=*/i % 4 != 0, DropoutReason::kNone);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const size_t total = kThreads * kRecordsPerThread;
  EXPECT_EQ(tracker.TotalSelected(), total);
  // i % 4 != 0 completes: 3/4 of each thread's records.
  EXPECT_EQ(tracker.TotalCompleted(), total * 3 / 4);
  EXPECT_EQ(tracker.TotalDropouts(), total / 4);
  EXPECT_EQ(tracker.NeverSelected(), 0u);
  const auto& per = tracker.PerTechnique();
  size_t technique_total = 0;
  for (const auto& [kind, stats] : per) {
    technique_total += stats.success + stats.failure;
  }
  EXPECT_EQ(technique_total, total);
  // Every client got an equal share of the round-robin.
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(tracker.selected()[c], total / kClients);
  }
}

TEST(ResourceAccountantConcurrencyTest, ConcurrentRecordsSumExactly) {
  ResourceAccountant accountant;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&accountant] {
      for (size_t i = 0; i < kRecordsPerThread; ++i) {
        // 3600 s = exactly 1.0 compute-hour: the useful/wasted sums are
        // integers in double, so they are order-insensitive and exact.
        accountant.Record(/*train_time_s=*/3600.0, /*comm_time_s=*/7200.0,
                          /*peak_memory_mb=*/0.0, /*completed=*/i % 2 == 0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const double half = static_cast<double>(kThreads * kRecordsPerThread) / 2.0;
  EXPECT_EQ(accountant.RecordedRounds(), kThreads * kRecordsPerThread);
  EXPECT_EQ(accountant.Useful().compute_hours, half);
  EXPECT_EQ(accountant.Wasted().compute_hours, half);
  EXPECT_EQ(accountant.Useful().comm_hours, 2.0 * half);
  EXPECT_EQ(accountant.Wasted().comm_hours, 2.0 * half);
  EXPECT_EQ(accountant.Useful().compute_hours + accountant.Wasted().compute_hours, 2.0 * half);
}

// The engines' actual discipline: parallel compute, ordered merge. Totals
// must be bit-identical to a sequential recording of the same outcomes even
// with non-integral values, because the merge order is fixed.
TEST(ResourceAccountantConcurrencyTest, OrderedMergeMatchesSequentialBitForBit) {
  constexpr size_t kN = 512;
  std::vector<double> train(kN), comm(kN), mem(kN);
  for (size_t i = 0; i < kN; ++i) {
    train[i] = 0.1 * static_cast<double>(i + 1);
    comm[i] = 0.3 * static_cast<double>(kN - i);
    mem[i] = 7.7 * static_cast<double>(i % 13);
  }

  ResourceAccountant sequential;
  for (size_t i = 0; i < kN; ++i) {
    sequential.Record(train[i], comm[i], mem[i], i % 3 == 0);
  }

  // Parallel phase computes (here: trivially), sequential phase records in
  // index order — the pattern used by all three engines.
  ThreadPool pool(4);
  std::vector<double> computed(kN);
  ParallelFor(&pool, kN, [&](size_t i) { computed[i] = train[i]; });
  ResourceAccountant merged;
  for (size_t i = 0; i < kN; ++i) {
    merged.Record(computed[i], comm[i], mem[i], i % 3 == 0);
  }

  EXPECT_EQ(sequential.Useful().compute_hours, merged.Useful().compute_hours);
  EXPECT_EQ(sequential.Useful().comm_hours, merged.Useful().comm_hours);
  EXPECT_EQ(sequential.Useful().memory_tb, merged.Useful().memory_tb);
  EXPECT_EQ(sequential.Wasted().compute_hours, merged.Wasted().compute_hours);
  EXPECT_EQ(sequential.Wasted().comm_hours, merged.Wasted().comm_hours);
  EXPECT_EQ(sequential.Wasted().memory_tb, merged.Wasted().memory_tb);
}

}  // namespace
}  // namespace floatfl
