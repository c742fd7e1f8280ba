#ifndef PDW_OBS_REQUEST_REGISTRY_H_
#define PDW_OBS_REQUEST_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

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
/// "complete"/"failed"). rows/bytes advance *during* a DMS move via the
/// pipeline's progress feed, then snap to the metered totals on completion.
struct RequestStepState {
  int index = 0;
  std::string kind;        ///< "DMS" or "RETURN".
  std::string move_kind;   ///< DMS operation name (DMS steps only).
  std::string dest_table;
  std::string sql;
  std::string status = "pending";
  int retries = 0;
  double rows_moved = 0;
  double bytes_moved = 0;
  double seconds = 0;      ///< Wall time of the successful attempt.
  /// Per-component DMS meters of the successful attempt (bytes, seconds),
  /// indexed by kDmsComponentNames order: reader, network, writer, bulkcopy.
  double component_bytes[4] = {0, 0, 0, 0};
  double component_seconds[4] = {0, 0, 0, 0};
};

inline constexpr const char* kDmsComponentNames[4] = {"reader", "network",
                                                      "writer", "bulkcopy"};

/// Everything sys.dm_pdw_exec_requests knows about one request. Timestamps
/// are seconds since the owning registry's epoch (its construction);
/// negative means "hasn't happened yet".
struct RequestState {
  uint64_t query_id = 0;
  /// Session the request belongs to (Appliance::Connect handle; 1 is the
  /// implicit default session behind bare Appliance::Run).
  uint64_t session_id = 0;
  std::string sql;        ///< Normalized SQL text.
  std::string engine;     ///< Local execution engine label ("row"/"batch").
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
  /// Served straight from the keyed result cache (no execution at all) —
  /// either an LRU hit or a coalesced wait on an identical in-flight query.
  bool result_cache_hit = false;
  /// Index of the step currently running (-1 before execution starts).
  int current_step = -1;
  int total_steps = 0;
  std::string error;
  std::vector<RequestStepState> steps;
  /// Compile-phase wall seconds in pipeline order (bind, normalize, memo,
  /// pdw_optimize, ...; a single plan_cache_lookup entry on cache hits).
  std::vector<std::pair<std::string, double>> compile_phases;
  /// Serial-memo search-space stats (restored from the cached plan's
  /// profile on cache hits, so they are populated either way).
  double memo_groups = 0;
  double memo_exprs = 0;
  bool budget_exhausted = false;  ///< Join enumeration was degraded.
  bool beam_used = false;         ///< Degradation ran as a beam search.

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
/// DMS pipeline workers concurrently; updates for unknown query ids are
/// ignored (the request may have been evicted).
class RequestRegistry {
 public:
  explicit RequestRegistry(size_t ring_capacity = 256);

  /// Seconds since this registry's epoch — the clock every timestamp in
  /// RequestState is expressed in.
  double NowSeconds() const;

  /// Admits a request in phase queued.
  void Register(uint64_t query_id, uint64_t session_id, std::string sql,
                std::string engine);

  void BeginCompile(uint64_t query_id);
  void EndCompile(uint64_t query_id, bool cache_hit);
  /// Attaches the compile's phase timings and memo search-space stats (the
  /// optimizer-observability columns of sys.dm_pdw_exec_requests).
  void SetCompileInfo(uint64_t query_id,
                      std::vector<std::pair<std::string, double>> phases,
                      double memo_groups, double memo_exprs,
                      bool budget_exhausted, bool beam_used);

  /// Transition back to queued while the request waits in the workload
  /// manager's admission queue of `resource_class`.
  void BeginQueue(uint64_t query_id, std::string resource_class);
  /// The workload manager granted a concurrency slot.
  void Admit(uint64_t query_id);
  /// The request was served straight from the result cache (terminal
  /// Complete follows); records the fact for the DMV's result_cache_hit.
  void MarkResultCacheHit(uint64_t query_id);

  /// Transition to executing with the plan's step skeleton (index/kind/
  /// move_kind/dest_table/sql filled, counters zero).
  void BeginExecute(uint64_t query_id, std::vector<RequestStepState> steps);

  /// Marks the step running and makes it the request's current step. Also
  /// used on retry re-entry; `retries` is the attempt count so far.
  void BeginStep(uint64_t query_id, int step_index, int retries);
  /// Live progress feed from the DMS pipeline: adds rows/bytes moved so far
  /// to the running step.
  void StepProgress(uint64_t query_id, int step_index, double rows_delta,
                    double bytes_delta);
  /// Finalizes a step with the metered totals of its successful attempt
  /// (replacing any live progress counts).
  void EndStep(uint64_t query_id, const RequestStepState& final_state);

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
