#ifndef PDW_OBS_REQUEST_REGISTRY_H_
#define PDW_OBS_REQUEST_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_profile.h"

namespace pdw::obs {

/// Lifecycle of one request through the appliance, mirroring the status
/// column of sys.dm_pdw_exec_requests: queued on submit *and again* while
/// waiting in the workload manager's admission queue, compiling while the
/// control node builds (or cache-loads) the DSQL plan, admitted once a
/// concurrency slot of its resource class is granted, executing while
/// steps run, then complete, failed, or cancelled.
enum class RequestPhase {
  kQueued,
  kCompiling,
  kAdmitted,
  kExecuting,
  kComplete,
  kFailed,
  kCancelled,
};

/// True for the phases a retired request can land in (complete / failed /
/// cancelled) — everything the DMV shows from the finished ring.
bool IsTerminalPhase(RequestPhase phase);

const char* RequestPhaseName(RequestPhase phase);

/// Live state of one DSQL step inside a request ("pending" -> "running" ->
/// "complete"/"failed"). `profile` is the StepProfile EXPLAIN ANALYZE
/// renders: the plan's view of the step while pending, the running
/// attempt's while running — its actual_rows and network.bytes advance
/// *during* a DMS move via the pipeline's progress feed — and the
/// successful attempt's metered totals once complete.
struct RequestStepState {
  StepProfile profile;
  std::string status = "pending";
};

/// Everything sys.dm_pdw_exec_requests knows about one request. Timestamps
/// are seconds since the owning registry's epoch (its construction);
/// negative means "hasn't happened yet".
struct RequestState {
  uint64_t query_id = 0;
  /// Session the request belongs to (Appliance::Connect handle; 1 is the
  /// implicit default session behind bare Appliance::Run).
  uint64_t session_id = 0;
  std::string sql;        ///< Normalized SQL text.
  RequestPhase phase = RequestPhase::kQueued;
  /// Workload-manager resource class ("small"/"medium"/"large"), set when
  /// the request enters admission; empty for DMV/explain-only requests
  /// that bypass the workload manager.
  std::string resource_class;
  double submit_seconds = 0;
  double compile_start_seconds = -1;
  double exec_start_seconds = -1;
  double end_seconds = -1;
  /// Admission-queue bracket: wait starts when compilation classified the
  /// request, ends when a concurrency slot was granted (-1 = not yet).
  double queue_start_seconds = -1;
  double admit_seconds = -1;
  bool cache_hit = false;
  /// Served straight from the keyed result cache (no execution at all).
  bool result_cache_hit = false;
  /// Index of the step currently running (-1 before execution starts).
  int current_step = -1;
  int total_steps = 0;
  std::string error;
  std::vector<RequestStepState> steps;
  /// Compile-phase wall seconds in pipeline order (bind, normalize, memo,
  /// pdw_optimize, ...; a single plan_cache_lookup entry on cache hits).
  std::vector<PhaseProfile> compile_phases;
  /// Optimizer search counters (restored from the cached plan on cache
  /// hits, so they are populated either way).
  OptimizerProfile optimizer;

  /// Sums over steps — the "so far" view while executing.
  int TotalRetries() const;
  double RowsMoved() const;
  double BytesMoved() const;
};

/// Always-on, thread-safe registry of every request the appliance has run:
/// a map of in-flight requests plus a bounded ring of recently finished
/// ones (oldest evicted first), so DMV queries can see both what is running
/// *right now* and what just happened. One instance per appliance — the
/// control node's request table, not process state.
///
/// All methods are safe to call from any number of session threads plus
/// DMS senders concurrently; updates for unknown query ids are
/// ignored (the request may have been evicted).
class RequestRegistry {
 public:
  explicit RequestRegistry(size_t ring_capacity = 256);

  /// Seconds since this registry's epoch — the clock every timestamp in
  /// RequestState is expressed in.
  double NowSeconds() const;

  /// Admits a request in phase queued.
  void Register(uint64_t query_id, uint64_t session_id, std::string sql);

  void BeginCompile(uint64_t query_id);
  void EndCompile(uint64_t query_id, bool cache_hit);
  /// Attaches the compile's phase timings and optimizer search counters
  /// (the optimizer-observability columns of sys.dm_pdw_exec_requests).
  void SetCompileInfo(uint64_t query_id, std::vector<PhaseProfile> phases,
                      const OptimizerProfile& optimizer);

  /// Transition back to queued while the request waits in the workload
  /// manager's admission queue of `resource_class`.
  void BeginQueue(uint64_t query_id, std::string resource_class);
  /// The workload manager granted a concurrency slot.
  void Admit(uint64_t query_id);
  /// The request was served straight from the result cache (terminal
  /// Complete follows); records the fact for the DMV's result_cache_hit.
  void MarkResultCacheHit(uint64_t query_id);

  /// Transition to executing with the plan's steps, every one pending
  /// (descriptive fields and estimates filled, measurements zero).
  void BeginExecute(uint64_t query_id, std::vector<StepProfile> steps);

  /// Stores an attempt's fresh profile (its retries field counts the
  /// attempts before it), marks the step running and makes it the
  /// request's current step. A retry thereby restarts the live progress
  /// counts from zero, as its partial temp table was dropped.
  void BeginStep(uint64_t query_id, const StepProfile& attempt);
  /// Live progress feed from the DMS pipeline: adds rows/bytes moved so far
  /// to the running step.
  void StepProgress(uint64_t query_id, int step_index, double rows_delta,
                    double bytes_delta);
  /// Completes a step with its successful attempt's profile (replacing any
  /// live progress counts with the metered totals).
  void EndStep(uint64_t query_id, const StepProfile& final_profile);

  void Complete(uint64_t query_id);
  void Fail(uint64_t query_id, std::string error);
  /// Terminal phase for a client-cancelled request (kCancelled).
  void Cancel(uint64_t query_id, std::string error);

  /// Point-in-time copy of every known request, in-flight first, then the
  /// ring of finished ones, both in ascending query-id order.
  std::vector<RequestState> Snapshot() const;

  size_t active_count() const;
  size_t finished_count() const;
  size_t ring_capacity() const;
  /// Shrinks (or grows) the finished-requests ring, evicting oldest.
  void set_ring_capacity(size_t capacity);
  void Clear();

 private:
  /// Moves an active request into the finished ring. Caller holds mu_.
  void Retire(uint64_t query_id, RequestPhase phase, std::string error);
  void EvictLocked();

  mutable std::mutex mu_;
  double epoch_ = 0;  ///< steady_clock seconds at construction.
  size_t ring_capacity_;
  std::map<uint64_t, RequestState> active_;
  std::deque<RequestState> finished_;  ///< Oldest first.
};

}  // namespace pdw::obs

#endif  // PDW_OBS_REQUEST_REGISTRY_H_
