#include "src/sim/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "src/common/check.h"

namespace floatfl {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    FLOATFL_CHECK_MSG(!stop_, "Submit after ThreadPool shutdown");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

bool ThreadPool::TryRunOneTask() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->num_workers() == 0 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // Every participant claims the next unclaimed index until none is left, so
  // one costly index delays only the thread that runs it.
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  size_t error_index = n;  // guarded by error_mu
  std::exception_ptr error;  // guarded by error_mu
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  const size_t helpers = std::min(n - 1, pool->num_workers());
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    futures.push_back(pool->Submit(drain));
  }
  drain();

  // Wait for every helper, helping drain the queue instead of blocking so a
  // nested ParallelFor issued from inside a task cannot deadlock the pool.
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!pool->TryRunOneTask()) {
        future.wait_for(std::chrono::microseconds(50));
      }
    }
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace floatfl
