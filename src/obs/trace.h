#ifndef PDW_OBS_TRACE_H_
#define PDW_OBS_TRACE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pdw::obs {

/// One closed (or still-open) span as recorded by a Tracer. Spans form a
/// tree via `parent` (index into the tracer's record vector, -1 for roots);
/// nesting follows the per-thread stack of live TraceSpan objects.
struct TraceRecord {
  int id = 0;
  int parent = -1;
  int depth = 0;
  /// Small dense index of the recording thread (first thread seen = 0);
  /// the Chrome-trace tid, so each thread gets its own track.
  int tid = 0;
  std::string name;
  double start_seconds = 0;  ///< Relative to the tracer's epoch.
  double wall_seconds = 0;
  double cpu_seconds = 0;    ///< Thread CPU time consumed inside the span.
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Thread-safe sink for hierarchical trace spans. Disabled by default: a
/// disabled tracer makes TraceSpan construction a single relaxed atomic
/// load, so instrumentation can stay compiled into every pipeline layer
/// without measurable cost (the bench_fig2_pipeline overhead bound).
///
/// The process-wide instance (`Tracer::Global()`) is what the compiler,
/// DMS, and executor instrumentation write to; tests can use private
/// instances.
class Tracer {
 public:
  Tracer();

  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded spans (open spans keep their ids and will still
  /// close harmlessly — their EndSpan is ignored).
  void Clear();

  /// Brackets one traced query (a Run with a trace file). A capture that
  /// finds the tracer disabled drops the recorded spans and enables it, so
  /// its file holds only spans recorded since; overlapping captures share
  /// that recording. When the last capture ends, a tracer the captures
  /// enabled is disabled and its spans dropped: a traced query leaves the
  /// tracer as it found it. A tracer its owner enabled stays enabled.
  void BeginCapture();
  void EndCapture();

  size_t size() const;
  std::vector<TraceRecord> Snapshot() const;

  /// Indented tree rendering, one line per span.
  std::string ToText() const;
  /// JSON: array of root spans, children nested recursively.
  std::string ToJson() const;
  /// Chrome-trace JSON (the chrome://tracing / Perfetto "traceEvents"
  /// format): every span becomes a complete ("X") event on its thread's
  /// track, with flow events stitching parent->child links that cross
  /// threads so a whole query reads as one flame graph.
  std::string ToChromeJson() const;
  /// Writes ToChromeJson() to `path` (overwriting).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class TraceSpan;

  /// Returns the new span's id (cleared_ + its record index).
  int BeginSpan(std::string name);
  void EndSpan(int id, double wall_seconds, double cpu_seconds);
  void Annotate(int id, const std::string& key, std::string value);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  double epoch_ = 0;
  std::vector<TraceRecord> records_;
  /// Spans dropped by Clear so far: span ids keep counting across a Clear,
  /// so a span opened before it never ends or annotates a later record.
  int cleared_ = 0;
  /// Stack of open span ids per thread — gives each thread its own
  /// nesting chain while all spans land in one shared record vector.
  std::map<std::thread::id, std::vector<int>> open_;
  /// Dense per-thread index for TraceRecord::tid.
  std::map<std::thread::id, int> thread_index_;

  /// Guards the capture count and whether the captures enabled the tracer.
  std::mutex capture_mu_;
  int captures_ = 0;
  bool capture_enabled_ = false;
};

/// RAII span: records wall and thread-CPU time between construction and
/// End()/destruction into a Tracer. No-op (and nearly free) when the tracer
/// is disabled.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, Tracer* tracer = &Tracer::Global());
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key-value attribute to the span (ignored when disabled).
  void AddAttr(const std::string& key, std::string value);
  void AddAttr(const std::string& key, double value);

  /// Closes the span early; idempotent.
  void End();

  bool active() const { return id_ >= 0; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  double wall_start_ = 0;
  double cpu_start_ = 0;
};

}  // namespace pdw::obs

#endif  // PDW_OBS_TRACE_H_
