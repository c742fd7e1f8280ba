#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/fault.h"

namespace pdw {

/// Shared state of one ParallelFor call. Indices are claimed from `next`;
/// `done` counts finished calls so the owner can wait for claimed-but-
/// unfinished work even after the index space is exhausted.
struct ThreadPool::Batch {
  int n = 0;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  const std::function<void(int)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;

  /// Claims and runs indices until none remain; returns how many it ran.
  int Drain() {
    int ran = 0;
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
      ++ran;
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
    return ran;
  }
};

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max(16, static_cast<int>(std::thread::hardware_concurrency())));
  return *pool;
}

void ThreadPool::SetMetricsHook(std::function<void(int, int)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  metrics_hook_ = std::move(hook);
}

void ThreadPool::RunOne(const std::function<void()>& task) {
  // A task has no error frame to surface an injected status into: delay
  // faults stall the task before it starts (modeling a slow worker), error
  // kinds are counted by the registry but otherwise dropped here.
  (void)fault::Check("pool.task_start");
  int active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (metrics_hook_) metrics_hook_(queue_depth(), active);
  }
  task();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  active = active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (metrics_hook_) metrics_hook_(queue_depth(), active);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(static_cast<int>(queue_.size()),
                         std::memory_order_relaxed);
    }
    RunOne(task);
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (n == 1) {
    fn(0);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;

  // One helper per index beyond the caller, bounded by the pool size.
  // Helpers that wake up after the batch is drained exit immediately.
  int helpers = std::min(n - 1, size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < helpers; ++i) {
      queue_.emplace_back([batch] { batch->Drain(); });
    }
    queue_depth_.store(static_cast<int>(queue_.size()),
                       std::memory_order_relaxed);
  }
  cv_.notify_all();

  // The caller participates, which is what makes nesting deadlock-free:
  // every claimed index is being run by a live thread that never waits on
  // unclaimed pool capacity.
  batch->Drain();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->n;
  });
}

}  // namespace pdw
