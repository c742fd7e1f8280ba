#ifndef PDW_COMMON_THREAD_POOL_H_
#define PDW_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdw {

/// A fixed-size worker pool used by the appliance to run one DSQL step's
/// per-node work on every compute node simultaneously (the Fig. 1
/// shared-nothing execution model), instead of visiting nodes in a serial
/// loop. It runs only node tasks: one per compute node of a step, or one
/// DMS sender per source node. A node's own plan runs on its task.
///
/// The only work-submission primitive is ParallelFor, which is safe to
/// nest: the calling thread participates in its own batch (it claims and
/// runs indices alongside the workers), so a task running *on* the pool
/// can itself call ParallelFor without deadlocking — in the worst case the
/// nested batch degrades to serial execution on the caller.
///
/// All methods are thread-safe. Counters (`queue_depth`, `active_workers`,
/// `tasks_executed`) are sampled by the appliance into the obs metrics
/// registry as `pool.*` gauges; an optional hook receives (queue depth,
/// active workers) on every task start/finish for live gauge updates.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool of max(hardware_concurrency, 16) workers: per-node
  /// work is frequently dominated by the modeled dispatch latency (a
  /// blocked thread, not a busy core), so the pool oversubscribes cores to
  /// overlap every node of a typical appliance.
  static ThreadPool& Global();

  int size() const { return static_cast<int>(workers_.size()); }
  int queue_depth() const { return queue_depth_.load(std::memory_order_relaxed); }
  int active_workers() const { return active_.load(std::memory_order_relaxed); }
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Installs a metrics hook called as hook(queue_depth, active_workers)
  /// whenever a task starts or finishes. Pass nullptr to clear. The hook
  /// must be thread-safe; installation is not synchronized with running
  /// tasks, so install it before submitting work (the appliance does so
  /// from its constructor).
  void SetMetricsHook(std::function<void(int, int)> hook);

  /// Runs fn(0) .. fn(n-1) and returns when all calls have finished.
  /// Indices are claimed by up to `max_parallelism` threads (0 = no extra
  /// cap beyond pool size); the caller always participates. With
  /// max_parallelism == 1 no helpers are enqueued and the loop runs
  /// serially on the caller — the serial-loop baseline of
  /// bench_serial_vs_parallel.
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   int max_parallelism = 0);

 private:
  struct Batch;

  void WorkerLoop();
  void RunOne(const std::function<void()>& task);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;

  std::atomic<int> queue_depth_{0};
  std::atomic<int> active_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::function<void(int, int)> metrics_hook_;
  std::mutex hook_mu_;
};

}  // namespace pdw

#endif  // PDW_COMMON_THREAD_POOL_H_
