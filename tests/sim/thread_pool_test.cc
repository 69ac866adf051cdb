#include "src/sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace floatfl {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad = pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> visited;
  ParallelFor(nullptr, 10, [&visited](size_t i) { visited.push_back(i); });
  ASSERT_EQ(visited.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(visited[i], i);
  }
}

TEST(ParallelForTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  std::vector<size_t> visited;
  ParallelFor(&pool, 5, [&visited](size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited.size(), 5u);
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, RethrowsExceptionFromBody) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](size_t i) {
                    if (i == 57) {
                      throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestIndexedChunkFailure) {
  ThreadPool pool(4);
  // Multiple chunks fail; the rethrown message must come from the failing
  // chunk with the lowest index, deterministically.
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      ParallelFor(&pool, 100, [](size_t i) {
        throw std::runtime_error("chunk of " + std::to_string(i));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk of 0");
    }
  }
}

TEST(ParallelForTest, ExceptionStillRunsIndependentChunks) {
  ThreadPool pool(4);
  const size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  try {
    ParallelFor(&pool, n, [&hits](size_t i) {
      if (i == 0) {
        throw std::runtime_error("first chunk dies");
      }
      ++hits[i];
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error&) {
  }
  // Every index outside the failing chunk's remainder still ran: chunks are
  // independent, and the failing chunk only skips its own remaining indices.
  int ran = 0;
  for (size_t i = 0; i < n; ++i) {
    ran += hits[i].load();
  }
  EXPECT_GE(ran, static_cast<int>(n - n / pool.num_workers() - 1));
}

TEST(ParallelForTest, ReentrantNestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  const size_t outer = 8;
  const size_t inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  ParallelFor(&pool, outer, [&](size_t o) {
    ParallelFor(&pool, inner, [&, o](size_t i) { ++hits[o * inner + i]; });
  });
  for (size_t i = 0; i < outer * inner; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelForTest, DeeplyNestedReentrancy) {
  ThreadPool pool(1);  // a single worker is the tightest deadlock trap
  std::atomic<int> leaves{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 4, [&](size_t) {
      ParallelFor(&pool, 4, [&](size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ParallelForTest, EveryNonThrowingIndexRunsOnceAndLowestFailureWins) {
  ThreadPool pool(3);
  const size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  try {
    ParallelFor(&pool, n, [&hits](size_t i) {
      if (i % 3 == 0) {
        throw std::runtime_error("index " + std::to_string(i));
      }
      ++hits[i];
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), i % 3 == 0 ? 0 : 1) << "index " << i;
  }
}

TEST(ParallelForTest, CostlyIndexWithNestedCallsCoversEverything) {
  ThreadPool pool(2);
  const size_t outer = 24;
  const size_t inner = 10;
  const size_t costly = 5;  // 100x the nested work of every other index
  std::vector<std::vector<std::atomic<int>>> hits(outer);
  for (size_t o = 0; o < outer; ++o) {
    hits[o] = std::vector<std::atomic<int>>(o == costly ? 100 * inner : inner);
  }
  ParallelFor(&pool, outer, [&](size_t o) {
    ParallelFor(&pool, hits[o].size(), [&, o](size_t i) { ++hits[o][i]; });
  });
  for (size_t o = 0; o < outer; ++o) {
    for (size_t i = 0; i < hits[o].size(); ++i) {
      EXPECT_EQ(hits[o][i].load(), 1) << "outer " << o << " inner " << i;
    }
  }
}

TEST(ParallelForTest, BlockedIndexDoesNotStrandTheRest) {
  // Indices are claimed one at a time, so while one participant is stuck on
  // an index the others run every remaining one.
  ThreadPool pool(1);
  const size_t n = 40;
  std::atomic<size_t> others_done{0};
  std::atomic<bool> timed_out{false};
  ParallelFor(&pool, n, [&](size_t i) {
    if (i != 0) {
      ++others_done;
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < n - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(others_done.load(), n - 1);
}

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  const size_t resolved = ResolveThreadCount(0);
  EXPECT_GE(resolved, 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, static_cast<size_t>(hw));
  }
}

TEST(ResolveThreadCountTest, ExplicitCountsPassThrough) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

}  // namespace
}  // namespace floatfl
