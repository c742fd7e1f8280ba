#include "appliance/appliance.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "appliance/dmv.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/distribution.h"
#include "sql/parser.h"

namespace pdw {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sums one node's per-operator actuals into the step aggregate. Plans are
/// compiled per node against local catalogs, so shapes could in principle
/// diverge; aggregation only happens when every operator lines up, else the
/// first node's profile is kept as-is.
void MergeOperators(const std::vector<obs::OperatorProfile>& from,
                    std::vector<obs::OperatorProfile>* into) {
  if (into->empty()) {
    *into = from;
    return;
  }
  if (into->size() != from.size()) return;
  for (size_t i = 0; i < from.size(); ++i) {
    if ((*into)[i].name != from[i].name) return;
  }
  for (size_t i = 0; i < from.size(); ++i) {
    obs::OperatorProfile& dst = (*into)[i];
    // Node-count-weighted mean, so the aggregate selectivity stays a ratio.
    if (from[i].selectivity >= 0) {
      dst.selectivity = dst.selectivity < 0
                            ? from[i].selectivity
                            : (dst.selectivity * dst.nodes +
                               from[i].selectivity * from[i].nodes) /
                                  (dst.nodes + from[i].nodes);
    }
    dst.estimated_rows += from[i].estimated_rows;
    dst.actual_rows += from[i].actual_rows;
    dst.seconds += from[i].seconds;
    dst.nodes += from[i].nodes;
    dst.batches += from[i].batches;
    dst.morsels += from[i].morsels;
  }
}

/// Wraps a node-local failure with the node id and SQL, preserving the
/// transient-vs-permanent classification so RetryPolicy sees through the
/// wrapper.
Status WrapNodeStatus(int node, const Status& s, const std::string& sql) {
  StatusCode code = s.code() == StatusCode::kTransient
                        ? StatusCode::kTransient
                        : StatusCode::kExecutionError;
  return Status(code, "DSQL step failed on node " + std::to_string(node) +
                          ": " + s.ToString() + "\nSQL: " + sql);
}

/// Measured input rows of a pre-aggregating step: the step SQL's root
/// aggregate sits first in the merged pre-order operator tree; its input is
/// the next operator one level deeper. 0 when actuals were not collected.
double PreaggActualRowsIn(const std::vector<obs::OperatorProfile>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].name.rfind("HashAggregate", 0) != 0) continue;
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[j].depth == ops[i].depth + 1) return ops[j].actual_rows;
      if (ops[j].depth <= ops[i].depth) break;
    }
    break;
  }
  return 0;
}

void FillComponents(const DmsRunMetrics& m, obs::StepProfile* sp) {
  sp->reader = {m.reader.bytes, m.reader.seconds};
  sp->network = {m.network.bytes, m.network.seconds};
  sp->writer = {m.writer.bytes, m.writer.seconds};
  sp->bulkcopy = {m.bulkcopy.bytes, m.bulkcopy.seconds};
  sp->rows_moved = static_cast<double>(m.rows_moved);
}

/// What each source node's run of one DSQL step measured. Nodes run
/// concurrently; the run of nodes[i] writes only index i.
struct NodeRuns {
  NodeRuns(std::vector<int> source_nodes, bool profile_operators)
      : nodes(std::move(source_nodes)),
        profiles(profile_operators ? nodes.size() : 0),
        seconds(nodes.size(), 0),
        names(nodes.size()) {}

  /// Adds every node's wall time and operator actuals to `sp`, and fills
  /// an empty `column_names` with the first node's non-empty names. Node
  /// order, so the aggregate does not depend on which node finished first.
  void FoldInto(obs::StepProfile* sp,
                std::vector<std::string>* column_names) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      sp->node_seconds.emplace_back(nodes[i], seconds[i]);
      if (!profiles.empty()) {
        MergeOperators(profiles[i].operators, &sp->operators);
      }
      if (column_names->empty() && !names[i].empty()) *column_names = names[i];
    }
  }

  std::vector<int> nodes;
  std::vector<ExecProfile> profiles;  ///< Empty unless actuals are collected.
  std::vector<double> seconds;
  std::vector<std::vector<std::string>> names;
};

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  for (;;) {
    size_t hit = s.find(from, pos);
    if (hit == std::string::npos) {
      out.append(s, pos, std::string::npos);
      return out;
    }
    out.append(s, pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

/// Rewrites every TEMP_ID_k name (dest tables and their references inside
/// later steps' SQL) to TEMP_ID_Q<qid>_k, so concurrent executions — and
/// repeated executions of one cached plan — never collide on a node's
/// temp-table namespace. The TEMP_ID marker is preserved for cleanup
/// checks.
void UniquifyTempNames(DsqlPlan* plan, uint64_t qid) {
  const std::string from = "TEMP_ID_";
  const std::string to = "TEMP_ID_Q" + std::to_string(qid) + "_";
  for (DsqlStep& step : plan->steps) {
    step.sql = ReplaceAll(std::move(step.sql), from, to);
    if (!step.dest_table.empty()) {
      step.dest_table = ReplaceAll(std::move(step.dest_table), from, to);
    }
  }
}

/// Base tables the parallel plan scans, with their current statistics
/// versions — the plan cache's invalidation anchor.
void CollectScanTables(const PlanNode& node, const PlanCache& cache,
                       std::set<std::string>* seen,
                       std::vector<std::pair<std::string, uint64_t>>* out) {
  if (node.kind == PhysOpKind::kTableScan) {
    std::string name = ToLower(node.table_name);
    if (seen->insert(name).second) {
      out->emplace_back(name, cache.TableVersion(name));
    }
  }
  for (const auto& child : node.children) {
    CollectScanTables(*child, cache, seen, out);
  }
}

const char* EngineLabel(const ExecOptions& exec) {
  return exec.engine == EngineKind::kRow ? "row" : "batch";
}

bool SelectReadsSystemViews(const sql::SelectStatement& stmt);

bool RefReadsSystemViews(const sql::TableRef& ref) {
  switch (ref.kind) {
    case sql::TableRefKind::kBase:
      return ToLower(static_cast<const sql::BaseTableRef&>(ref).table)
                 .rfind("sys.", 0) == 0;
    case sql::TableRefKind::kJoin: {
      const auto& join = static_cast<const sql::JoinTableRef&>(ref);
      return RefReadsSystemViews(*join.left) ||
             RefReadsSystemViews(*join.right);
    }
    case sql::TableRefKind::kDerived:
      return SelectReadsSystemViews(
          *static_cast<const sql::DerivedTableRef&>(ref).subquery);
  }
  return false;
}

/// True when any FROM entry (through joins, derived tables and UNION arms)
/// reads a sys.* system view — such queries route to the control node's
/// engine instead of the distributed pipeline.
bool SelectReadsSystemViews(const sql::SelectStatement& stmt) {
  for (const auto& ref : stmt.from) {
    if (RefReadsSystemViews(*ref)) return true;
  }
  if (stmt.union_next != nullptr) {
    return SelectReadsSystemViews(*stmt.union_next);
  }
  return false;
}

/// Latency bucket bounds (seconds) shared by every duration histogram:
/// 1µs..300s with extra resolution where query phases actually land.
std::vector<double> LatencyBuckets() {
  return {1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01,
          0.025, 0.05,  0.1,  0.25,  0.5,  1,    2.5,    5,    10,
          30,    60,    120,  300};
}

/// Wires the shared worker pool's live counters and the fault registry's
/// firings into the obs metrics registry — once per process, on first
/// appliance construction (pdw_common cannot depend on pdw_obs, so both
/// subsystems expose hooks instead of counting themselves). Also declares
/// the appliance's latency histograms so sys.dm_pdw_metrics reports
/// meaningful sub-second quantiles instead of decade-bucket defaults.
void InstallObsHooks() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.DefineHistogram("appliance.query.seconds", LatencyBuckets());
    reg.DefineHistogram("optimizer.compile.seconds", LatencyBuckets());
    reg.DefineHistogram("optimizer.phase.bind.seconds", LatencyBuckets());
    reg.DefineHistogram("optimizer.phase.normalize.seconds", LatencyBuckets());
    reg.DefineHistogram("optimizer.phase.memo.seconds", LatencyBuckets());
    reg.DefineHistogram("optimizer.phase.pdw_optimize.seconds",
                        LatencyBuckets());
    reg.DefineHistogram("wlm.queue_wait.seconds", LatencyBuckets());
    reg.DefineHistogram("dsql.step.seconds", LatencyBuckets());
    reg.DefineHistogram("dms.reader.seconds", LatencyBuckets());
    reg.DefineHistogram("dms.network.seconds", LatencyBuckets());
    reg.DefineHistogram("dms.writer.seconds", LatencyBuckets());
    reg.DefineHistogram("dms.bulkcopy.seconds", LatencyBuckets());
    obs::MetricsRegistry::Global().SetGauge(
        "pool.size", static_cast<double>(ThreadPool::Global().size()));
    ThreadPool::Global().SetMetricsHook([](int queue_depth, int active) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.SetGauge("pool.queue_depth", static_cast<double>(queue_depth));
      reg.SetGauge("pool.active_workers", static_cast<double>(active));
    });
    fault::FaultRegistry::Global().SetMetricsHook(
        [](const std::string& point, fault::FaultKind kind) {
          obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
          reg.Count("fault.injected.total");
          reg.Count(std::string("fault.injected.") +
                    fault::FaultKindToString(kind));
          reg.Count("fault.injected.point." + point);
        });
  });
}

}  // namespace

Appliance::Appliance(Topology topology)
    : shell_(topology),
      dms_(topology.num_compute_nodes),
      table_versions_(std::make_shared<TableVersionTracker>()),
      plan_cache_(/*capacity=*/128, table_versions_),
      result_cache_(/*capacity=*/64, table_versions_),
      workload_(WorkloadManagerConfig::FromEnv()) {
  for (int i = 0; i < topology.num_compute_nodes; ++i) {
    compute_.push_back(std::make_unique<LocalEngine>());
  }
  InstallObsHooks();
  // The control node's engine doubles as the DMV host: sys.dm_pdw_* view
  // names can never collide with user tables (the parser reserves the
  // sys. prefix for dotted names), so registration cannot fail.
  Status views = InstallSystemViews(&control_, &requests_, &plan_cache_,
                                    &workload_, &result_cache_);
  (void)views;
}

Status Appliance::CreateTable(TableDef def) {
  PDW_RETURN_NOT_OK(shell_.CreateTable(def));
  for (auto& node : compute_) {
    PDW_RETURN_NOT_OK(node->CreateTable(def));
  }
  return reference_.CreateTable(std::move(def));
}

Status Appliance::CreateTableSql(const std::string& ddl) {
  PDW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(ddl));
  if (stmt.kind != sql::StatementKind::kCreateTable) {
    return Status::InvalidArgument("expected CREATE TABLE");
  }
  TableDef def;
  def.name = stmt.create_table->name;
  def.schema = stmt.create_table->schema;
  def.distribution = stmt.create_table->distribution;
  return CreateTable(std::move(def));
}

Status Appliance::LoadRows(const std::string& table, const RowVector& rows) {
  PDW_ASSIGN_OR_RETURN(const TableDef* def, shell_.GetTable(table));
  int n = num_compute_nodes();
  if (def->distribution.is_replicated()) {
    for (auto& node : compute_) {
      PDW_RETURN_NOT_OK(node->InsertRows(table, rows));
    }
  } else {
    std::vector<int> hash_ordinals;
    for (const std::string& dc : def->distribution.columns) {
      int pos = def->schema.FindColumn(dc);
      if (pos < 0) return Status::Internal("distribution column missing");
      hash_ordinals.push_back(pos);
    }
    std::vector<RowVector> shards(static_cast<size_t>(n));
    for (const Row& r : rows) {
      shards[static_cast<size_t>(dms_.TargetNode(r, hash_ordinals))]
          .push_back(r);
    }
    for (int i = 0; i < n; ++i) {
      PDW_RETURN_NOT_OK(compute_[static_cast<size_t>(i)]->InsertRows(
          table, std::move(shards[static_cast<size_t>(i)])));
    }
  }
  PDW_RETURN_NOT_OK(reference_.InsertRows(table, rows));
  return RefreshStatistics(table);
}

Status Appliance::RefreshStatistics(const std::string& table) {
  PDW_ASSIGN_OR_RETURN(TableDef* def, shell_.GetMutableTable(table));
  std::vector<TableStats> parts;
  for (auto& node : compute_) {
    PDW_ASSIGN_OR_RETURN(TableStats local, node->ComputeLocalStats(table));
    parts.push_back(std::move(local));
  }
  std::string dist_col = def->distribution.is_replicated() ||
                                 def->distribution.columns.empty()
                             ? ""
                             : ToLower(def->distribution.columns[0]);
  if (def->distribution.is_replicated() && !parts.empty()) {
    // Every node holds the same rows: the global stats are any node's.
    def->stats = parts[0];
  } else {
    def->stats = TableStats::Merge(parts, dist_col);
  }
  // Fresh statistics can change distribution-dependent plan choices — and
  // fresh rows change answers. The bump goes through the tracker shared by
  // the plan cache and the result cache, so both invalidate at once.
  plan_cache_.BumpTableVersion(table);
  return Status::OK();
}

std::vector<int> Appliance::SourceNodes(const DsqlStep& step) const {
  int n = dms_.num_compute_nodes();
  if (step.source_distribution.is_control()) return {dms_.control_node()};
  if (step.kind == DsqlStepKind::kReturn &&
      step.source_distribution.is_replicated()) {
    return {0};  // identical streams: read one copy
  }
  if (step.kind == DsqlStepKind::kDms) {
    if (step.move_kind == DmsOpKind::kReplicatedBroadcast) return {0};
    if (step.move_kind == DmsOpKind::kRemoteCopyToSingle &&
        step.source_distribution.is_replicated()) {
      return {0};
    }
  }
  std::vector<int> all;
  for (int i = 0; i < n; ++i) all.push_back(i);
  return all;
}

std::vector<int> Appliance::TargetNodes(const DsqlStep& step) const {
  int n = dms_.num_compute_nodes();
  switch (step.move_kind) {
    case DmsOpKind::kPartitionMove:
    case DmsOpKind::kRemoteCopyToSingle:
      return {dms_.control_node()};
    default: {
      std::vector<int> all;
      for (int i = 0; i < n; ++i) all.push_back(i);
      return all;
    }
  }
}

Status Appliance::DropTemps(const std::vector<std::string>& temps) {
  for (const std::string& name : temps) {
    for (auto& node : compute_) {
      if (node->HasTable(name)) PDW_RETURN_NOT_OK(node->DropTable(name));
    }
    if (control_.HasTable(name)) PDW_RETURN_NOT_OK(control_.DropTable(name));
  }
  return Status::OK();
}

Result<ApplianceResult> Appliance::ExecuteDsql(const DsqlPlan& dsql,
                                               uint64_t query_id,
                                               bool profile_operators,
                                               int max_parallel_nodes,
                                               const ExecOptions& exec,
                                               const RetryPolicy& retry,
                                               const std::atomic<bool>* cancel) {
  ApplianceResult result;
  result.dsql = dsql;
  result.column_names = dsql.output_names;
  double start = NowSeconds();
  std::vector<std::string> temps;
  obs::TraceSpan dsql_span("appliance.execute_dsql");
  dsql_span.AddAttr("steps", static_cast<double>(dsql.steps.size()));

  // Transition the registry entry to executing with the plan's step
  // skeleton, so DMV queries see every step (pending ones included) from
  // the moment execution starts.
  {
    std::vector<obs::RequestStepState> skeleton;
    for (size_t i = 0; i < dsql.steps.size(); ++i) {
      const DsqlStep& step = dsql.steps[i];
      obs::RequestStepState s;
      s.index = static_cast<int>(i);
      s.kind = step.kind == DsqlStepKind::kDms ? "DMS" : "RETURN";
      if (step.kind == DsqlStepKind::kDms) {
        s.move_kind = DmsOpKindToString(step.move_kind);
      }
      s.dest_table = step.dest_table;
      s.sql = step.sql;
      skeleton.push_back(std::move(s));
    }
    requests_.BeginExecute(query_id, std::move(skeleton));
  }

  ThreadPool& pool = ThreadPool::Global();
  bool parallel = max_parallel_nodes != 1;
  double latency = dispatch_latency_seconds_;

  auto engine_of = [&](int node) -> LocalEngine& {
    return node == dms_.control_node() ? control_
                                       : *compute_[static_cast<size_t>(node)];
  };

  // Every abort funnels through here, and DropTemps traverses no fault
  // points, so a failed plan can never leak a TEMP_ID table — the appliance
  // stays serviceable for the next query.
  auto cleanup_and_fail = [&](Status s) -> Status {
    Status drop = DropTemps(temps);
    (void)drop;
    return s;
  };

  // The per-node body of every step: the control→compute RPC of shipping
  // the step's SQL to runs->nodes[i] (fault point + modeled latency), then
  // the timed node-local execution. The DMS producers and the Return step
  // both run it; NodeRuns::FoldInto then adds what it measured to the step
  // profile.
  auto run_node = [&](const DsqlStep& step, NodeRuns* runs,
                      size_t i) -> Result<RowVector> {
    int node = runs->nodes[i];
    Status fs = fault::Check("appliance.step.dispatch");
    if (!fs.ok()) return WrapNodeStatus(node, fs, step.sql);
    if (latency > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(latency));
    }
    double t0 = NowSeconds();
    auto rows = engine_of(node).ExecuteSql(
        step.sql, runs->profiles.empty() ? nullptr : &runs->profiles[i], exec);
    runs->seconds[i] = NowSeconds() - t0;
    if (!rows.ok()) return WrapNodeStatus(node, rows.status(), step.sql);
    runs->names[i] = std::move(rows->column_names);
    return std::move(rows->rows);
  };

  // Runs one DMS step end-to-end: source SQL on every source node, rows
  // through DMS, destination temp table materialized on every target node.
  auto run_dms_step = [&](const DsqlStep& step,
                          obs::StepProfile* sp) -> Status {
    sp->kind = "DMS";
    sp->move_kind = DmsOpKindToString(step.move_kind);
    sp->dest_table = step.dest_table;
    obs::TraceSpan step_span("dsql.step");
    step_span.AddAttr("kind", sp->move_kind);
    step_span.AddAttr("dest", step.dest_table);
    // Each source node's SQL runs inside its DMS producer, so row
    // production on one node overlaps pack/route/unpack of nodes that
    // finished earlier — no materialization barrier between step execution
    // and movement.
    NodeRuns runs(SourceNodes(step), profile_operators);
    std::vector<DmsProducer> producers(
        static_cast<size_t>(dms_.num_compute_nodes() + 1));
    for (size_t i = 0; i < runs.nodes.size(); ++i) {
      producers[static_cast<size_t>(runs.nodes[i])] = [&, i] {
        return run_node(step, &runs, i);
      };
    }
    DmsExecOptions dms_options;
    dms_options.cancel = cancel;
    dms_options.max_workers = max_parallel_nodes;
    dms_options.progress = [this, query_id, idx = sp->index](
                               double rows_delta, double bytes_delta) {
      requests_.StepProgress(query_id, idx, rows_delta, bytes_delta);
    };
    for (const ColumnDef& col : step.dest_schema.columns()) {
      dms_options.types.push_back(col.type);
    }
    DmsRunMetrics metrics;
    auto routed = dms_.ExecutePipelined(
        step.move_kind, std::move(producers), step.hash_column_ordinals,
        &metrics, parallel ? &pool : nullptr, dms_options);
    if (!routed.ok()) return routed.status();
    runs.FoldInto(sp, &result.column_names);
    result.dms_metrics.Accumulate(metrics);
    FillComponents(metrics, sp);
    sp->actual_rows = static_cast<double>(metrics.rows_moved);
    // Materialize the destination temp table on every target node, again
    // simultaneously — engines are per-node, so each target only touches
    // its own catalog and storage.
    TableDef temp_def;
    temp_def.name = step.dest_table;
    temp_def.schema = step.dest_schema;
    const std::vector<int> targets = TargetNodes(step);
    std::vector<Status> target_status(targets.size());
    pool.ParallelFor(
        static_cast<int>(targets.size()),
        [&](int i) {
          int node = targets[static_cast<size_t>(i)];
          LocalEngine& engine = engine_of(node);
          Status ts = fault::Check("appliance.temp.create");
          if (ts.ok()) ts = engine.CreateTable(temp_def);
          if (ts.ok()) {
            ts = engine.InsertRows(
                step.dest_table,
                std::move((*routed)[static_cast<size_t>(node)]));
          }
          target_status[static_cast<size_t>(i)] = std::move(ts);
        },
        parallel ? max_parallel_nodes : 1);
    for (Status& ts : target_status) {
      if (!ts.ok()) return std::move(ts);
    }
    return Status::OK();
  };

  // Runs the Return step: per-source-node SQL, deterministic assembly,
  // merge sort, limit, visible-column trim.
  auto run_return_step = [&](const DsqlStep& step,
                             obs::StepProfile* sp) -> Status {
    sp->kind = "RETURN";
    obs::TraceSpan step_span("dsql.step");
    step_span.AddAttr("kind", std::string("Return"));
    // Every source node runs the SQL simultaneously (capped at
    // max_parallel_nodes; 1 = the serial node-by-node loop).
    NodeRuns runs(SourceNodes(step), profile_operators);
    std::vector<Result<RowVector>> per_node(
        runs.nodes.size(), Status::Internal("node not run"));
    pool.ParallelFor(
        static_cast<int>(runs.nodes.size()),
        [&](int i) {
          per_node[static_cast<size_t>(i)] =
              run_node(step, &runs, static_cast<size_t>(i));
        },
        parallel ? max_parallel_nodes : 1);
    for (const Result<RowVector>& rows : per_node) {
      if (!rows.ok()) return rows.status();
    }
    runs.FoldInto(sp, &result.column_names);
    // Assemble in node order, keeping the serial loop's deterministic
    // stream order regardless of which node finished first.
    RowVector assembled;
    for (Result<RowVector>& rows : per_node) {
      assembled.insert(assembled.end(), std::make_move_iterator(rows->begin()),
                       std::make_move_iterator(rows->end()));
    }
    if (!step.merge_sort.empty()) {
      std::stable_sort(assembled.begin(), assembled.end(),
                       [&](const Row& a, const Row& b) {
                         for (const auto& [o, asc] : step.merge_sort) {
                           int c = a[static_cast<size_t>(o)].Compare(
                               b[static_cast<size_t>(o)]);
                           if (c != 0) return asc ? c < 0 : c > 0;
                         }
                         return false;
                       });
    }
    if (step.final_limit >= 0 &&
        assembled.size() > static_cast<size_t>(step.final_limit)) {
      assembled.resize(static_cast<size_t>(step.final_limit));
    }
    if (dsql.visible_columns >= 0) {
      size_t visible = static_cast<size_t>(dsql.visible_columns);
      for (Row& r : assembled) {
        if (r.size() > visible) r.resize(visible);
      }
      if (result.column_names.size() > visible) {
        result.column_names.resize(visible);
      }
    }
    result.rows = std::move(assembled);
    sp->actual_rows = static_cast<double>(result.rows.size());
    return Status::OK();
  };

  // Each step runs under the retry policy: a transient failure (node
  // hiccup, injected fault) re-runs the whole step after its partial dest
  // temp is dropped everywhere, with exponential backoff in between; any
  // other failure aborts the plan through cleanup_and_fail. The profile
  // keeps the successful attempt's numbers plus the retry count.
  int max_attempts = std::max(1, retry.max_attempts);
  for (size_t i = 0; i < dsql.steps.size(); ++i) {
    const DsqlStep& step = dsql.steps[i];
    bool is_dms = step.kind == DsqlStepKind::kDms;
    if (is_dms) temps.push_back(step.dest_table);
    obs::StepProfile sp;
    for (int attempt = 0;; ++attempt) {
      // Cooperative cancellation is observed at every step boundary and at
      // every retry re-entry; the abort goes through cleanup_and_fail so a
      // cancelled query never leaks temp tables.
      if (cancel != nullptr && cancel->load()) {
        return cleanup_and_fail(
            Status::Cancelled("query cancelled at step boundary"));
      }
      sp = obs::StepProfile{};
      sp.index = static_cast<int>(i);
      sp.sql = step.sql;
      sp.estimated_rows = step.estimated_rows;
      sp.estimated_cost = step.estimated_cost;
      sp.preagg = step.preagg;
      sp.preagg_rows_in = step.preagg_rows_in;
      sp.retries = attempt;
      requests_.BeginStep(query_id, sp.index, attempt);
      double step_start = NowSeconds();
      Status s = is_dms ? run_dms_step(step, &sp) : run_return_step(step, &sp);
      if (s.ok()) {
        sp.measured_seconds = NowSeconds() - step_start;
        if (sp.preagg) {
          sp.preagg_rows_in_actual = PreaggActualRowsIn(sp.operators);
          obs::MetricsRegistry::Global().Count("dms.preagg.rows_in",
                                               sp.preagg_rows_in_actual);
          obs::MetricsRegistry::Global().Count("dms.preagg.rows_out",
                                               sp.rows_moved);
        }
        break;
      }
      if (!retry.IsRetryable(s) || attempt + 1 >= max_attempts) {
        return cleanup_and_fail(std::move(s));
      }
      // The failed attempt may have materialized a partial dest temp on
      // some target nodes: drop it so the retry starts clean.
      if (is_dms) (void)DropTemps({step.dest_table});
      double backoff = retry.BackoffForAttempt(attempt + 1);
      obs::MetricsRegistry::Global().Count("retry.attempts");
      obs::MetricsRegistry::Global().Count("retry.backoff_seconds", backoff);
      retry.Sleep(backoff);
    }
    // Finalize the registry's step with the successful attempt's metered
    // totals (replacing live-progress counts, which double-count broadcast
    // fan-out) and feed the latency histograms behind sys.dm_pdw_metrics.
    {
      obs::RequestStepState fin;
      fin.index = sp.index;
      fin.kind = sp.kind;
      fin.move_kind = sp.move_kind;
      fin.dest_table = sp.dest_table;
      fin.sql = sp.sql;
      fin.retries = sp.retries;
      fin.rows_moved = sp.actual_rows;
      fin.bytes_moved = sp.network.bytes;
      fin.seconds = sp.measured_seconds;
      fin.component_bytes[0] = sp.reader.bytes;
      fin.component_bytes[1] = sp.network.bytes;
      fin.component_bytes[2] = sp.writer.bytes;
      fin.component_bytes[3] = sp.bulkcopy.bytes;
      fin.component_seconds[0] = sp.reader.seconds;
      fin.component_seconds[1] = sp.network.seconds;
      fin.component_seconds[2] = sp.writer.seconds;
      fin.component_seconds[3] = sp.bulkcopy.seconds;
      requests_.EndStep(query_id, fin);
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.Observe("dsql.step.seconds", sp.measured_seconds);
      if (is_dms) {
        reg.Observe("dms.reader.seconds", sp.reader.seconds);
        reg.Observe("dms.network.seconds", sp.network.seconds);
        reg.Observe("dms.writer.seconds", sp.writer.seconds);
        reg.Observe("dms.bulkcopy.seconds", sp.bulkcopy.seconds);
      }
    }
    result.profile.steps.push_back(std::move(sp));
  }

  // End-of-query temp cleanup passes through its own injection point under
  // the same retry policy; a permanently injected drop failure still cleans
  // up (DropTemps itself is fault-exempt) but surfaces the error.
  Status drop = RunWithRetries(
      retry,
      [&]() -> Status {
        PDW_FAULT_POINT("appliance.temp.drop");
        return DropTemps(temps);
      },
      [&](int, double backoff) {
        obs::MetricsRegistry::Global().Count("retry.attempts");
        obs::MetricsRegistry::Global().Count("retry.backoff_seconds", backoff);
      });
  if (!drop.ok()) {
    (void)DropTemps(temps);
    return drop;
  }
  result.measured_seconds = NowSeconds() - start;
  result.profile.measured_seconds = result.measured_seconds;
  result.profile.modeled_cost = dsql.total_move_cost;
  return result;
}

Result<ApplianceResult> Appliance::Run(const std::string& sql,
                                       const QueryOptions& options) {
  return RunAs(kDefaultSessionId, sql, options);
}

std::shared_ptr<std::atomic<bool>> Appliance::RegisterCancelFlag(
    uint64_t query_id) {
  auto flag = std::make_shared<std::atomic<bool>>(false);
  std::lock_guard<std::mutex> lock(cancel_mu_);
  cancel_flags_[query_id] = flag;
  return flag;
}

void Appliance::UnregisterCancelFlag(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  cancel_flags_.erase(query_id);
}

Status Appliance::Cancel(uint64_t query_id) {
  std::shared_ptr<std::atomic<bool>> flag;
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    auto it = cancel_flags_.find(query_id);
    if (it == cancel_flags_.end()) {
      return Status::NotFound("no in-flight query with id " +
                              std::to_string(query_id));
    }
    flag = it->second;
  }
  flag->store(true);
  // Wake admission-queue waiters so a queued (not yet executing) query
  // observes the flag immediately instead of after getting a slot, and
  // result-cache followers so a cancelled one abandons its leader wait.
  workload_.Poke();
  result_cache_.Poke();
  return Status::OK();
}

Result<ApplianceResult> Appliance::RunAs(uint64_t session_id,
                                         const std::string& sql,
                                         const QueryOptions& options) {
  // Trace export: a per-query path (ObserveOptions::trace_out) or the
  // process-wide PDW_TRACE_OUT turns the global tracer on before the run
  // and dumps a Chrome-trace JSON file after it.
  std::string trace_path = options.observe.trace_out;
  if (trace_path.empty()) {
    const char* env = std::getenv("PDW_TRACE_OUT");
    if (env != nullptr && *env != '\0') trace_path = env;
  }
  if (!trace_path.empty()) obs::Tracer::Global().Enable();

  // Register the request before any work happens, so even a parse failure
  // shows up in sys.dm_pdw_exec_requests; every exit path of RunImpl then
  // lands in exactly one terminal phase below.
  uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  requests_.Register(query_id, session_id, NormalizeSqlForPlanCache(sql),
                     EngineLabel(options.execute.engine));
  std::shared_ptr<std::atomic<bool>> cancel = RegisterCancelFlag(query_id);
  double start = NowSeconds();
  Result<ApplianceResult> result = Status::Internal("query not executed");
  {
    obs::TraceSpan span("appliance.run");
    span.AddAttr("query_id", static_cast<double>(query_id));
    result = RunImpl(query_id, sql, options, cancel.get());
  }
  UnregisterCancelFlag(query_id);
  obs::MetricsRegistry::Global().Observe("appliance.query.seconds",
                                         NowSeconds() - start);
  if (result.ok()) {
    result->query_id = query_id;
    result->session_id = session_id;
    result->profile.query_id = query_id;
    requests_.Complete(query_id);
  } else if (result.status().code() == StatusCode::kCancelled) {
    requests_.Cancel(query_id, result.status().ToString());
  } else {
    requests_.Fail(query_id, result.status().ToString());
  }
  if (!trace_path.empty()) {
    Status written = obs::Tracer::Global().WriteChromeTrace(trace_path);
    (void)written;
  }
  return result;
}

Result<ApplianceResult> Appliance::RunDmvQuery(uint64_t query_id,
                                               const std::string& sql,
                                               const QueryOptions& options) {
  obs::TraceSpan span("appliance.dmv_query");
  requests_.BeginCompile(query_id);
  requests_.EndCompile(query_id, /*cache_hit=*/false);
  requests_.BeginExecute(query_id, {});
  double start = NowSeconds();
  PDW_ASSIGN_OR_RETURN(
      SqlResult rows, control_.ExecuteSql(sql, nullptr, options.execute.engine));
  ApplianceResult result;
  result.column_names = std::move(rows.column_names);
  result.rows = std::move(rows.rows);
  result.measured_seconds = NowSeconds() - start;
  result.plan_text = "-- control-node DMV query (system-view snapshot scan)";
  result.explain_text = result.plan_text;
  result.profile.sql = sql;
  result.profile.measured_seconds = result.measured_seconds;
  return result;
}

Result<ApplianceResult> Appliance::RunImpl(uint64_t query_id,
                                           const std::string& sql,
                                           const QueryOptions& options,
                                           const std::atomic<bool>* cancel) {
  // Queries over sys.dm_pdw_* system views never enter the distributed
  // pipeline: they run on the control node, like DMVs on the real
  // appliance — bypassing the workload manager and the result cache too,
  // so monitoring stays responsive on a saturated appliance. A parse
  // failure falls through so the ordinary pipeline reports its usual error.
  {
    auto parsed = sql::ParseStatement(sql);
    if (parsed.ok() && parsed->kind == sql::StatementKind::kSelect &&
        SelectReadsSystemViews(*parsed->select)) {
      return RunDmvQuery(query_id, sql, options);
    }
  }

  // Result cache: served entirely from the control node — no compile, no
  // admission, no execution. A miss makes this call the *leader* of its
  // key: identical queries arriving while it runs coalesce onto its
  // result, so the Publish/FailFlight obligation below must cover every
  // exit path of the body.
  const bool use_result_cache =
      options.execute.use_result_cache && !options.compile.explain_only;
  std::string rc_normalized, rc_fingerprint;
  if (use_result_cache) {
    rc_normalized = NormalizeSqlForPlanCache(sql);
    rc_fingerprint = FingerprintCompilerOptions(options.compile.compiler);
    bool coalesced = false;
    PDW_ASSIGN_OR_RETURN(std::optional<CachedQueryResult> hit,
                         result_cache_.LookupOrJoin(rc_normalized,
                                                    rc_fingerprint, &coalesced,
                                                    cancel));
    if (hit) {
      requests_.MarkResultCacheHit(query_id);
      ApplianceResult result;
      result.column_names = std::move(hit->column_names);
      result.rows = std::move(hit->rows);
      result.plan_text = std::move(hit->plan_text);
      result.modeled_cost = hit->modeled_cost;
      result.result_cache_hit = true;
      result.explain_text =
          std::string("-- served from result cache") +
          (coalesced ? " (coalesced onto identical in-flight query)" : "") +
          "\n" + result.plan_text;
      result.profile.sql = sql;
      result.profile.query_id = query_id;
      result.profile.modeled_cost = result.modeled_cost;
      return result;
    }
  }

  auto body = [&]() -> Result<ApplianceResult> {
    // Arm this query's fault schedule (if any) for the duration of the call
    // and open a new query scope, so query#-scoped specs — '1' in
    // ExecutionOptions::faults, the matching serial in PDW_FAULTS — target
    // it.
    fault::ScopedFaults scoped_faults(options.execute.faults);
    if (fault::FaultRegistry::Armed()) {
      fault::FaultRegistry::Global().BeginQuery();
    }
    obs::QueryProfile profile;
    profile.sql = sql;
    profile.query_id = query_id;

    // 1. Obtain a DSQL plan: from the plan cache when allowed and fresh,
    // else through the full parse→memo→XML→enumeration pipeline.
    DsqlPlan dsql;
    std::string plan_text;
    double modeled_cost = 0;
    std::vector<std::string> output_names;
    bool cache_hit = false;
    // Base tables the plan scans with their stats versions: the
    // invalidation anchor for both the plan cache and the result cache.
    std::vector<std::pair<std::string, uint64_t>> scan_versions;

    requests_.BeginCompile(query_id);
    std::string normalized, fingerprint;
    if (options.compile.use_plan_cache) {
      double t0 = NowSeconds();
      normalized = NormalizeSqlForPlanCache(sql);
      fingerprint = FingerprintCompilerOptions(options.compile.compiler);
      if (auto cached = plan_cache_.Lookup(normalized, fingerprint)) {
        dsql = std::move(cached->dsql);
        plan_text = std::move(cached->plan_text);
        modeled_cost = cached->modeled_cost;
        output_names = std::move(cached->output_names);
        profile.optimizer = cached->optimizer;
        scan_versions = std::move(cached->table_versions);
        cache_hit = true;
        double dt = NowSeconds() - t0;
        profile.compile_phases.push_back({"plan_cache_lookup", dt});
        profile.compile_seconds = dt;
      }
    }

    if (!cache_hit) {
      PDW_ASSIGN_OR_RETURN(
          PdwCompilation comp,
          CompilePdwQuery(shell_, sql, options.compile.compiler));
      double t0 = NowSeconds();
      {
        obs::TraceSpan gen("compile.dsql_gen");
        PDW_ASSIGN_OR_RETURN(
            dsql, GenerateDsql(*comp.parallel.plan, comp.output_names, "tpch",
                               comp.serial.visible_columns));
      }
      comp.phase_seconds.emplace_back("dsql_gen", NowSeconds() - t0);
      plan_text = PlanTreeToString(*comp.parallel.plan);
      modeled_cost = comp.parallel.cost;
      output_names = comp.output_names;
      for (const auto& [name, seconds] : comp.phase_seconds) {
        profile.compile_phases.push_back({name, seconds});
        profile.compile_seconds += seconds;
      }
      profile.optimizer.groups =
          static_cast<double>(comp.parallel.groups_optimized);
      profile.optimizer.options_considered =
          static_cast<double>(comp.parallel.options_considered);
      profile.optimizer.options_kept =
          static_cast<double>(comp.parallel.options_kept);
      profile.optimizer.options_pruned =
          static_cast<double>(comp.parallel.options_pruned);
      profile.optimizer.enforcers_inserted =
          static_cast<double>(comp.parallel.enforcers_inserted);
      profile.optimizer.memo_groups = static_cast<double>(comp.memo_groups);
      profile.optimizer.memo_exprs = static_cast<double>(comp.memo_exprs);
      profile.optimizer.budget_exhausted = comp.budget_exhausted;
      profile.optimizer.beam_used = comp.beam_used;

      std::set<std::string> seen;
      CollectScanTables(*comp.parallel.plan, plan_cache_, &seen,
                        &scan_versions);
      if (options.compile.use_plan_cache) {
        CachedDsqlPlan entry;
        entry.dsql = dsql;
        entry.output_names = output_names;
        entry.plan_text = plan_text;
        entry.modeled_cost = modeled_cost;
        entry.optimizer = profile.optimizer;
        entry.table_versions = scan_versions;
        plan_cache_.Insert(normalized, fingerprint, std::move(entry));
      }
    }
    profile.modeled_cost = modeled_cost;
    profile.cache_hit = cache_hit;
    requests_.EndCompile(query_id, cache_hit);
    // Cache hits restore the memo stats from the cached plan's profile, so
    // the DMV columns are populated either way.
    std::vector<std::pair<std::string, double>> phase_pairs;
    phase_pairs.reserve(profile.compile_phases.size());
    for (const obs::PhaseProfile& p : profile.compile_phases) {
      phase_pairs.emplace_back(p.name, p.seconds);
    }
    requests_.SetCompileInfo(query_id, std::move(phase_pairs),
                             profile.optimizer.memo_groups,
                             profile.optimizer.memo_exprs,
                             profile.optimizer.budget_exhausted,
                             profile.optimizer.beam_used);
    obs::MetricsRegistry::Global().Observe("optimizer.compile.seconds",
                                           profile.compile_seconds);
    for (const auto& [phase_name, phase_secs] : profile.compile_phases) {
      obs::MetricsRegistry::Global().Observe(
          "optimizer.phase." + phase_name + ".seconds", phase_secs);
    }

    // 2. EXPLAIN only: render without executing (no admission needed).
    if (options.compile.explain_only) {
      ApplianceResult result;
      result.dsql = std::move(dsql);
      result.column_names = output_names;
      result.modeled_cost = modeled_cost;
      result.plan_text = plan_text;
      result.cache_hit = cache_hit;
      std::string warning;
      if (profile.optimizer.budget_exhausted) {
        warning = std::string("-- WARNING: join enumeration degraded") +
                  (profile.optimizer.beam_used
                       ? " (beam search used)\n"
                       : " (single seeded join order)\n");
      }
      result.explain_text =
          "-- parallel plan (modeled DMS cost " +
          StringFormat("%.6f", modeled_cost) + ")" +
          (cache_hit ? "  [plan cache hit]" : "") + "\n" + warning +
          plan_text + "\n" + result.dsql.ToString();
      result.profile = std::move(profile);
      return result;
    }

    // 3. Workload management: classify from the optimizer's modeled cost
    // (unless the session pinned a class) and acquire a concurrency slot
    // of that class — queueing behind the bounded admission gate, or
    // fast-failing with kOverloaded when the queue itself is full. The
    // ticket holds the slot for the whole execution.
    ResourceClass rc =
        workload_.Classify(modeled_cost, options.execute.resource_class);
    requests_.BeginQueue(query_id, ResourceClassName(rc));
    double queue_seconds = 0;
    PDW_ASSIGN_OR_RETURN(
        WorkloadManager::Ticket ticket,
        workload_.Admit(query_id, rc, options.execute.priority, cancel,
                        &queue_seconds));
    requests_.Admit(query_id);
    if (cancel != nullptr && cancel->load()) {
      return Status::Cancelled("query cancelled before execution");
    }
    // The admitted class's fan-out cap composes with the caller's own:
    // the stricter one wins (0 = uncapped). It bounds both per-step node
    // parallelism and DMS pipeline workers.
    int max_parallel = options.execute.max_parallel_nodes;
    int class_cap = ticket.max_parallel_nodes();
    if (class_cap > 0 && (max_parallel == 0 || class_cap < max_parallel)) {
      max_parallel = class_cap;
    }

    // 4. Execute with per-execution-unique temp names — TEMP_ID_Q<id>_k,
    // where <id> is the same request id sys.dm_pdw_exec_requests shows.
    UniquifyTempNames(&dsql, query_id);
    PDW_ASSIGN_OR_RETURN(
        ApplianceResult result,
        ExecuteDsql(dsql, query_id, options.observe.collect_operator_actuals,
                    max_parallel, options.execute.engine,
                    options.execute.retry, cancel));
    result.modeled_cost = modeled_cost;
    result.plan_text = plan_text;
    result.cache_hit = cache_hit;
    result.resource_class = ResourceClassName(rc);
    result.queue_seconds = queue_seconds;
    if (result.column_names.empty()) result.column_names = output_names;

    // ExecuteDsql filled the per-step profile; graft the compile-side half
    // (phases, optimizer counters) in.
    profile.steps = std::move(result.profile.steps);
    profile.measured_seconds = result.profile.measured_seconds;
    profile.modeled_cost = result.profile.modeled_cost;
    result.profile = std::move(profile);

    result.explain_text = "-- parallel plan (modeled DMS cost " +
                          StringFormat("%.6f", result.modeled_cost) + ")" +
                          (cache_hit ? "  [plan cache hit]" : "") + "\n" +
                          result.plan_text + "\n" + result.profile.ToText();

    if (use_result_cache) {
      CachedQueryResult cached;
      cached.column_names = result.column_names;
      cached.rows = result.rows;
      cached.plan_text = result.plan_text;
      cached.modeled_cost = result.modeled_cost;
      cached.table_versions = std::move(scan_versions);
      result_cache_.Publish(rc_normalized, rc_fingerprint, std::move(cached));
    }
    return result;
  };

  Result<ApplianceResult> result = body();
  if (use_result_cache && !result.ok()) {
    // Leader failed (or was cancelled): release coalesced followers so one
    // of them retries as the new leader instead of inheriting this error.
    result_cache_.FailFlight(rc_normalized, rc_fingerprint);
  }
  return result;
}

Result<ApplianceResult> Appliance::ExecutePlan(
    const PlanNode& plan, std::vector<std::string> output_names) {
  PDW_ASSIGN_OR_RETURN(DsqlPlan dsql, GenerateDsql(plan, std::move(output_names)));
  uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  requests_.Register(query_id, kDefaultSessionId,
                     "(precompiled parallel plan)", EngineLabel(ExecOptions{}));
  UniquifyTempNames(&dsql, query_id);
  Result<ApplianceResult> result =
      ExecuteDsql(dsql, query_id, /*profile_operators=*/false,
                  /*max_parallel_nodes=*/0, ExecOptions{}, RetryPolicy{},
                  /*cancel=*/nullptr);
  if (!result.ok()) {
    requests_.Fail(query_id, result.status().ToString());
    return result.status();
  }
  requests_.Complete(query_id);
  result->query_id = query_id;
  result->session_id = kDefaultSessionId;
  result->modeled_cost = TotalMoveCost(plan);
  result->plan_text = PlanTreeToString(plan);
  return result;
}

Result<SqlResult> Appliance::ExecuteReference(const std::string& sql,
                                              const ExecOptions& exec) {
  return reference_.ExecuteSql(sql, nullptr, exec);
}

}  // namespace pdw
