// Span recorder of the benchmark's traced pass. The benchmark opens a span
// around each public call it makes into a layer of the appliance; spans
// are kept in memory and written out once at the end. Nothing inside
// src/ is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer.
struct Span {
  std::string name;
  double start = 0;  ///< Steady-clock seconds.
  double end = 0;
  int parent = -1;   ///< Index of the enclosing span on the same thread.
  uint64_t request = 0;
  double value = 0;  ///< Optional count measured at the boundary (bytes).
};

double NowSeconds();

/// Records spans from any number of threads. Parents are tracked per
/// thread, so one process should have one Tracer recording at a time.
/// Disabled, Begin hands out inert scopes and records nothing.
class Tracer {
 public:
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }
    void set_value(double value);
    /// Closes the span early; idempotent.
    void End();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index, int saved_parent)
        : tracer_(tracer), index_(index), saved_parent_(saved_parent) {}
    Tracer* tracer_;
    int index_;
    int saved_parent_;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  Scope Begin(const char* name, uint64_t request);

  /// Every span recorded so far. Call once recording threads are joined.
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by child spans) summed per
  /// span name and request: name -> request -> seconds.
  std::map<std::string, std::map<uint64_t, double>> SelfSeconds() const;

  /// Writes {"spans": [...]} with times in microseconds. False on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< Guards spans_ while threads record.
  std::vector<Span> spans_;
  static thread_local int current_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
