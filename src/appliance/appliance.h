#ifndef PDW_APPLIANCE_APPLIANCE_H_
#define PDW_APPLIANCE_APPLIANCE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "appliance/workload_manager.h"
#include "common/fault.h"
#include "common/retry.h"
#include "dms/dms_service.h"
#include "engine/local_engine.h"
#include "obs/query_profile.h"
#include "obs/request_registry.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"
#include "pdw/plan_cache.h"
#include "pdw/result_cache.h"

namespace pdw {

/// Control-node compilation knobs (Fig. 2) of one query.
struct CompileOptions {
  /// Knobs of the compilation pipeline itself (parser/optimizer/DSQL gen).
  PdwCompilerOptions compiler;
  /// Serve the DSQL plan from the control node's compiled-plan cache when
  /// a fresh entry exists, and insert it after compiling otherwise. On by
  /// default — repeated statements skip the optimizer; stats-versioned
  /// invalidation keeps stale plans out after loads/stats refreshes.
  bool use_plan_cache = true;
  /// Compile and render the plan but do not execute (EXPLAIN).
  bool explain_only = false;
};

/// Execution-tier knobs of one query: engine selection, workload
/// management, caching, retries, and fault injection.
struct ExecutionOptions {
  /// Cap on how many compute nodes run one DSQL step's work at the same
  /// time: 0 fans out across all nodes on the shared worker pool (the
  /// appliance model of Fig. 1), 1 reproduces the serial node-by-node
  /// loop (the bench_serial_vs_parallel baseline). It bounds both the
  /// per-step node fan-out and the DMS senders.
  int max_parallel_nodes = 0;
  /// Which local execution engine every node-local plan runs on: the
  /// vectorized batch engine (default) or the row-at-a-time reference
  /// interpreter, which differential tests pick per query.
  ExecOptions engine;
  /// Faults armed for this query only (on top of any process-wide
  /// PDW_FAULTS schedule). Specs with query# = 1 or '*' target this query.
  fault::FaultSchedule faults;
  /// Retry policy for transient step failures: each DSQL step is retried
  /// at step granularity (its partial temp table dropped first), with
  /// exponential backoff between attempts.
  RetryPolicy retry;
  /// Workload-manager resource class: kAuto (default) classifies from the
  /// optimizer's modeled cost; anything else pins the class.
  ResourceClass resource_class = ResourceClass::kAuto;
  /// Admission priority within the resource class's queue: higher values
  /// dequeue first; equal priorities dequeue FIFO.
  int priority = 0;
  /// Serve byte-identical repeated queries from the control node's result
  /// cache, and insert the rows of every completed miss. Off by default:
  /// cached hits skip execution entirely, so profiles, step metrics, and
  /// fault points are not exercised on a hit.
  bool use_result_cache = false;
};

/// Observability knobs of one query.
struct ObserveOptions {
  /// Collect per-operator actual row counts and timings inside every
  /// node-local plan (the EXPLAIN ANALYZE data; adds metering overhead).
  bool collect_operator_actuals = false;
  /// When non-empty, the global tracer is enabled for this query and a
  /// Chrome-trace JSON file (chrome://tracing / Perfetto "Open trace
  /// file") is written here when the query finishes. The process-wide
  /// PDW_TRACE_OUT environment variable is the same knob for every query.
  std::string trace_out;
};

/// Per-query knobs of a session Run, grouped by pipeline tier. Configure
/// either directly (options.execute.max_parallel_nodes = 1) or through the
/// fluent With* builders:
///   session.Run(sql, QueryOptions()
///                        .WithExplainOnly()
///                        .WithMaxParallelNodes(1));
struct QueryOptions {
  CompileOptions compile;
  ExecutionOptions execute;
  ObserveOptions observe;

  QueryOptions& WithCompilerOptions(PdwCompilerOptions compiler) {
    compile.compiler = std::move(compiler);
    return *this;
  }
  QueryOptions& WithPlanCache(bool on = true) {
    compile.use_plan_cache = on;
    return *this;
  }
  QueryOptions& WithExplainOnly(bool on = true) {
    compile.explain_only = on;
    return *this;
  }
  QueryOptions& WithMaxParallelNodes(int cap) {
    execute.max_parallel_nodes = cap;
    return *this;
  }
  QueryOptions& WithEngine(ExecOptions engine) {
    execute.engine = engine;
    return *this;
  }
  QueryOptions& WithFaults(fault::FaultSchedule faults) {
    execute.faults = std::move(faults);
    return *this;
  }
  QueryOptions& WithRetry(RetryPolicy retry) {
    execute.retry = std::move(retry);
    return *this;
  }
  QueryOptions& WithResourceClass(ResourceClass rc) {
    execute.resource_class = rc;
    return *this;
  }
  QueryOptions& WithPriority(int priority) {
    execute.priority = priority;
    return *this;
  }
  QueryOptions& WithResultCache(bool on = true) {
    execute.use_result_cache = on;
    return *this;
  }
  QueryOptions& WithOperatorActuals(bool on = true) {
    observe.collect_operator_actuals = on;
    return *this;
  }
  QueryOptions& WithTraceOut(std::string path) {
    observe.trace_out = std::move(path);
    return *this;
  }
};

/// Result of one distributed query execution.
struct ApplianceResult {
  /// Appliance-wide monotonically unique request id — the same number that
  /// keys this run in sys.dm_pdw_exec_requests and in the TEMP_ID_Q<id>_k
  /// temp-table names the run created.
  uint64_t query_id = 0;
  /// Session the query ran under (1 = the implicit default session behind
  /// bare Appliance::Run).
  uint64_t session_id = 0;
  std::vector<std::string> column_names;
  RowVector rows;
  DsqlPlan dsql;
  double modeled_cost = 0;      ///< Optimizer's DMS cost estimate.
  double measured_seconds = 0;  ///< Wall time of DSQL execution.
  DmsRunMetrics dms_metrics;    ///< Accumulated over all DMS steps.
  std::string plan_text;        ///< EXPLAIN of the parallel plan.
  /// Rendered explanation: for explain_only the plan + DSQL steps, for
  /// executed queries the EXPLAIN ANALYZE text (est-vs-actual annotated
  /// when collect_operator_actuals was set).
  std::string explain_text;
  /// True when the DSQL plan was served from the plan cache and the
  /// compile pipeline was skipped entirely.
  bool cache_hit = false;
  /// True when the rows came from the result cache and nothing executed
  /// at all.
  bool result_cache_hit = false;
  /// Workload-manager class the query was admitted under ("small"/
  /// "medium"/"large"; empty for DMV / explain-only / cache-served runs
  /// that bypass admission).
  std::string resource_class;
  /// Seconds spent waiting in the admission queue before execution.
  double queue_seconds = 0;
  /// Always 0: every DMS step runs for its own query. Kept only because
  /// perfbench reads it for its per-layer appliance.shared_follow_ratio.
  int shared_steps_followed = 0;
  /// Estimated-vs-actual profile: compile-phase timings, optimizer search
  /// counters, and one StepProfile per DSQL step (per-component DMS bytes,
  /// modeled cost vs measured seconds, estimated vs actual rows, per-node
  /// SQL wall times). Per-operator executor actuals are collected only
  /// when ObserveOptions.collect_operator_actuals is set.
  obs::QueryProfile profile;
};

class Session;

/// The full PDW appliance simulator (Fig. 1): a control node and N compute
/// nodes, each wrapping a LocalEngine ("SQL Server instance"), plus the DMS
/// service. The control node holds the shell database — metadata and merged
/// global statistics, no user rows (§2.2).
///
/// Query execution follows §2.4: the control node compiles a DSQL plan (or
/// serves it from the plan cache); the workload manager classifies the
/// query into a resource class from its modeled cost and admits it through
/// that class's bounded concurrency gate; each DSQL step then runs its SQL
/// on every source node *simultaneously* on the shared worker pool, DMS
/// routes rows into temp tables, and the Return step's per-node SQL is
/// assembled (merge-sorted, limited) into the final result.
///
/// Sessions: Connect() returns a Session handle carrying per-session
/// default QueryOptions and a stable session_id surfaced in the DMVs.
/// Session::Run is the query entry point; Appliance::Run remains as a thin
/// wrapper over the implicit default session (id 1).
///
/// Thread safety: Run / ExecutePlan / ExecuteReference / Cancel and the
/// const accessors may be called from any number of session threads
/// concurrently; every in-flight query works on uniquely-named temp
/// tables. DDL and loads (CreateTable*, LoadRows, RefreshStatistics) are
/// setup-time operations and must not race queries that read the same
/// tables. The mutable accessors (mutable_shell, mutable_compute_node,
/// mutable_control_engine, dms) hand out unsynchronized references —
/// single-threaded use only.
class Appliance {
 public:
  explicit Appliance(Topology topology);

  int num_compute_nodes() const { return dms_.num_compute_nodes(); }

  /// Opens a new session with its own default QueryOptions and a fresh
  /// stable session id (surfaced in sys.dm_pdw_exec_requests.session_id).
  Session Connect(QueryOptions session_defaults = {});

  /// DDL: registers the table in the shell database and creates the
  /// physical (empty) table on every compute node.
  Status CreateTable(TableDef def);
  /// DDL from SQL text ("CREATE TABLE ... WITH (DISTRIBUTION = ...)").
  Status CreateTableSql(const std::string& ddl);

  /// Loads rows, routing them by the table's distribution (hash or
  /// replicate); also maintains the single-node reference copy. Bumps the
  /// table's statistics version, invalidating cached plans *and cached
  /// results* that read it.
  Status LoadRows(const std::string& table, const RowVector& rows);

  /// Recomputes per-node local statistics and merges them into the shell
  /// database's global statistics (§2.2). Bumps the table's statistics
  /// version, invalidating cached plans and cached results that read it.
  Status RefreshStatistics(const std::string& table);

  /// Runs a SELECT through the full PDW pipeline on the implicit default
  /// session (id 1). Prefer Session::Run for new code — it carries
  /// per-session defaults and a distinct session id.
  Result<ApplianceResult> Run(const std::string& sql,
                              const QueryOptions& options = {});

  /// Requests cooperative cancellation of an in-flight query by id. The
  /// query observes the flag at admission, at every step boundary, at
  /// retry re-entry, and at every DMS batch hand-off, then fails with
  /// kCancelled after dropping its temp tables. Returns NotFound when no
  /// such query is currently running (finished queries included).
  Status Cancel(uint64_t query_id);

  /// Executes an already-generated parallel plan (used to run the
  /// parallelized-serial baseline for comparison benches).
  Result<ApplianceResult> ExecutePlan(const PlanNode& plan,
                                      std::vector<std::string> output_names);

  /// Runs the query on the single-node reference engine holding all data —
  /// ground truth for validating distributed execution. `exec` selects the
  /// local engine, so a caller can diff the two engines on the same data.
  Result<SqlResult> ExecuteReference(const std::string& sql,
                                     const ExecOptions& exec = {});

  /// Models the control→compute RPC of dispatching one step's SQL to a
  /// node (seconds; default 0). The pool overlaps these dispatches across
  /// nodes; the serial loop pays them one after another — the §2.4
  /// "steps run on all nodes simultaneously" effect made measurable.
  void set_dispatch_latency_seconds(double seconds) {
    dispatch_latency_seconds_ = seconds;
  }
  double dispatch_latency_seconds() const { return dispatch_latency_seconds_; }

  // Shared-state accessors. The const overloads are safe from concurrent
  // session threads; the mutable ones are not synchronized.
  const Catalog& shell() const { return shell_; }
  Catalog* mutable_shell() { return &shell_; }
  const DmsService& dms() const { return dms_; }
  DmsService& dms() { return dms_; }
  const LocalEngine& compute_node(int i) const {
    return *compute_[static_cast<size_t>(i)];
  }
  LocalEngine& mutable_compute_node(int i) {
    return *compute_[static_cast<size_t>(i)];
  }
  const LocalEngine& control_engine() const { return control_; }
  LocalEngine& mutable_control_engine() { return control_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }
  const ResultCache& result_cache() const { return result_cache_; }
  ResultCache& result_cache() { return result_cache_; }
  /// The admission-control tier every executed query passes through;
  /// backs sys.dm_pdw_workload. Starts from the WorkloadManagerConfig
  /// defaults; WorkloadManager::SetConfig retunes it.
  const WorkloadManager& workload() const { return workload_; }
  WorkloadManager& workload() { return workload_; }
  /// The always-on request registry behind sys.dm_pdw_exec_requests: every
  /// Run (and ExecutePlan) registers itself here and updates its lifecycle
  /// phase, current step, retry counts and rows/bytes moved live, so a DMV
  /// query from another session thread observes queries mid-flight.
  const obs::RequestRegistry& requests() const { return requests_; }
  obs::RequestRegistry& requests() { return requests_; }

 private:
  friend class Session;

  /// The implicit session behind bare Appliance::Run.
  static constexpr uint64_t kDefaultSessionId = 1;

  /// Session-tagged Run — the real entry point Session::Run and
  /// Appliance::Run both land on.
  Result<ApplianceResult> RunAs(uint64_t session_id, const std::string& sql,
                                const QueryOptions& options);
  /// The body of Run, bracketed by the caller's registry Register +
  /// Complete/Fail/Cancel so every exit path lands in exactly one terminal
  /// phase. `cancel` is this query's cooperative cancellation token.
  Result<ApplianceResult> RunImpl(uint64_t query_id, const std::string& sql,
                                  const QueryOptions& options,
                                  const std::atomic<bool>* cancel);
  /// Runs a query over sys.dm_pdw_* system views directly on the control
  /// node's engine (DMVs are control-node state on the real appliance; the
  /// distributed pipeline never sees them).
  Result<ApplianceResult> RunDmvQuery(uint64_t query_id,
                                      const std::string& sql,
                                      const QueryOptions& options);
  /// One plan execution's per-step runner (defined in appliance.cc).
  struct StepRunner;
  /// Runs the plan's steps in order, every attempt of a step through
  /// StepRunner under `retry`, and drops its temp tables on every exit.
  Result<ApplianceResult> ExecuteDsql(const DsqlPlan& dsql,
                                      uint64_t query_id,
                                      bool profile_operators,
                                      int max_parallel_nodes,
                                      const ExecOptions& exec,
                                      const RetryPolicy& retry,
                                      const std::atomic<bool>* cancel);
  /// Registers (and on destruction unregisters) a query's cancellation
  /// token so Appliance::Cancel can find it.
  std::shared_ptr<std::atomic<bool>> RegisterCancelFlag(uint64_t query_id);
  void UnregisterCancelFlag(uint64_t query_id);
  /// Nodes that run a step's source SQL.
  std::vector<int> SourceNodes(const DsqlStep& step) const;
  /// Nodes that must host a DMS step's destination temp table.
  std::vector<int> TargetNodes(const DsqlStep& step) const;
  Status DropTemps(const std::vector<std::string>& temps);

  Catalog shell_;
  DmsService dms_;
  std::vector<std::unique_ptr<LocalEngine>> compute_;
  LocalEngine control_;
  LocalEngine reference_;
  /// One stats-version tracker shared by the plan cache and the result
  /// cache, so a LoadRows bump invalidates both in one place.
  std::shared_ptr<TableVersionTracker> table_versions_;
  PlanCache plan_cache_;
  ResultCache result_cache_;
  WorkloadManager workload_;
  obs::RequestRegistry requests_;
  /// Per-execution id used to uniquify temp-table names so concurrent
  /// queries (and re-executions of one cached plan) never collide.
  std::atomic<uint64_t> next_query_id_{1};
  /// Session ids handed out by Connect; 1 is the implicit default session.
  std::atomic<uint64_t> next_session_id_{2};
  /// Cancellation tokens of in-flight queries, keyed by query id.
  mutable std::mutex cancel_mu_;
  std::map<uint64_t, std::shared_ptr<std::atomic<bool>>> cancel_flags_;
  double dispatch_latency_seconds_ = 0;
};

/// A client connection to the appliance (PDW's session concept): carries
/// per-session default QueryOptions and a stable session_id that tags every
/// request this session runs in sys.dm_pdw_exec_requests. Obtained from
/// Appliance::Connect; copyable (copies share the id), cheap to pass by
/// value. The appliance must outlive its sessions.
class Session {
 public:
  uint64_t id() const { return session_id_; }

  const QueryOptions& defaults() const { return defaults_; }
  QueryOptions& mutable_defaults() { return defaults_; }

  /// Runs `sql` with this session's default options.
  Result<ApplianceResult> Run(const std::string& sql) {
    return appliance_->RunAs(session_id_, sql, defaults_);
  }
  /// Runs `sql` with explicit per-query options (replacing — not merging
  /// with — the session defaults for this one call).
  Result<ApplianceResult> Run(const std::string& sql,
                              const QueryOptions& options) {
    return appliance_->RunAs(session_id_, sql, options);
  }

  /// Cooperatively cancels an in-flight query (any session's — ids are
  /// appliance-global, as on the real control node).
  Status Cancel(uint64_t query_id) { return appliance_->Cancel(query_id); }

  Appliance* appliance() { return appliance_; }
  const Appliance* appliance() const { return appliance_; }

 private:
  friend class Appliance;
  Session(Appliance* appliance, uint64_t session_id, QueryOptions defaults)
      : appliance_(appliance),
        session_id_(session_id),
        defaults_(std::move(defaults)) {}

  Appliance* appliance_;
  uint64_t session_id_;
  QueryOptions defaults_;
};

inline Session Appliance::Connect(QueryOptions session_defaults) {
  return Session(this, next_session_id_.fetch_add(1),
                 std::move(session_defaults));
}

}  // namespace pdw

#endif  // PDW_APPLIANCE_APPLIANCE_H_
