// Fixed-size work pool for deterministic parallel client simulation.
//
// The FL engines fan per-client work out across a ThreadPool via ParallelFor
// and collect results into index-ordered buffers, so the set of values
// computed — and therefore every downstream floating-point reduction — is
// identical for any worker count. Determinism is a property of the call
// sites (disjoint per-index state, ordered collection); the pool itself only
// guarantees that every submitted task runs exactly once and that exceptions
// propagate to the waiter.
//
// ParallelFor is reentrant: a task may itself call ParallelFor on the same
// pool. Waiters never block idly while the queue is non-empty — they help
// drain it — so nested fan-outs cannot deadlock even when every worker is
// occupied by an outer-level task.
#ifndef SRC_SIM_THREAD_POOL_H_
#define SRC_SIM_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace floatfl {

class ThreadPool {
 public:
  // Spawns `num_workers` worker threads (0 is allowed; every ParallelFor
  // then runs inline on the caller).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // Enqueues `fn`; the future reports completion and rethrows anything the
  // task threw.
  std::future<void> Submit(std::function<void()> fn);

  // Runs one queued task on the calling thread if any is pending. Used by
  // waiters to help drain the queue (this is what makes nested ParallelFor
  // safe). Returns false when the queue was empty.
  bool TryRunOneTask();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Maps an ExperimentConfig-style thread count to an effective one:
// 0 = hardware_concurrency() (at least 1), anything else is taken verbatim.
size_t ResolveThreadCount(size_t requested);

// Runs fn(i) for every i in [0, n) on the calling thread plus up to
// num_workers() pool tasks, and blocks until all of them finish. Indices are
// handed out one at a time from a shared counter: each participant claims
// the next unclaimed i until n is reached, so an index that costs more than
// the rest holds up only the thread running it. Which thread runs which
// index is unspecified; callers keep results deterministic by writing only
// per-index state. With a null pool (or no workers, or n <= 1) the loop runs
// inline in index order — the engines' num_threads == 1 path.
//
// If one or more invocations throw, every other index still runs, and the
// exception of the lowest failing index is rethrown — deterministic for a
// deterministic fn.
void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace floatfl

#endif  // SRC_SIM_THREAD_POOL_H_
