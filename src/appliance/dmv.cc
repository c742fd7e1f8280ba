#include "appliance/dmv.h"

#include <string>
#include <utility>
#include <vector>

#include "common/datum.h"
#include "obs/metrics.h"

namespace pdw {

namespace {

/// Milliseconds between two registry timestamps; `end < 0` means the phase
/// is still open, so it is measured against `now` instead. Returns null
/// when the phase never started.
Datum PhaseMs(double start, double end, double now) {
  if (start < 0) return Datum::Null();
  double stop = end < 0 ? now : end;
  return Datum::Double((stop - start) * 1e3);
}

TableDef ViewDef(std::string name, std::vector<ColumnDef> columns) {
  TableDef def;
  def.name = std::move(name);
  def.schema = Schema(std::move(columns));
  return def;
}

Status InstallExecRequests(LocalEngine* engine,
                           const obs::RequestRegistry* requests) {
  TableDef def = ViewDef("sys.dm_pdw_exec_requests",
                         {{"request_id", TypeId::kInt, false},
                          {"session_id", TypeId::kInt, false},
                          {"status", TypeId::kVarchar, false},
                          {"sql_text", TypeId::kVarchar, false},
                          {"engine", TypeId::kVarchar, true},
                          {"resource_class", TypeId::kVarchar, true},
                          {"cache_hit", TypeId::kBool, false},
                          {"result_cache_hit", TypeId::kBool, false},
                          {"submit_time_s", TypeId::kDouble, false},
                          {"compile_ms", TypeId::kDouble, true},
                          {"queue_ms", TypeId::kDouble, true},
                          {"exec_ms", TypeId::kDouble, true},
                          {"total_ms", TypeId::kDouble, false},
                          {"current_step", TypeId::kInt, false},
                          {"total_steps", TypeId::kInt, false},
                          {"retries", TypeId::kInt, false},
                          {"rows_moved", TypeId::kDouble, false},
                          {"bytes_moved", TypeId::kDouble, false},
                          {"error_text", TypeId::kVarchar, true},
                          // Optimizer observability (new columns appended so
                          // positional readers of the older shape keep working).
                          {"bind_ms", TypeId::kDouble, true},
                          {"normalize_ms", TypeId::kDouble, true},
                          {"memo_ms", TypeId::kDouble, true},
                          {"enumerate_ms", TypeId::kDouble, true},
                          {"memo_groups", TypeId::kDouble, false},
                          {"memo_exprs", TypeId::kDouble, false},
                          {"budget_exhausted", TypeId::kBool, false},
                          {"beam_used", TypeId::kBool, false}});
  return engine->RegisterVirtualTable(
      std::move(def), [requests]() -> Result<RowVector> {
        double now = requests->NowSeconds();
        // Phase wall time by name, in ms; NULL when the phase didn't run
        // (e.g. a plan-cache hit skips the whole pipeline).
        auto phase_ms = [](const obs::RequestState& r, const char* name) {
          for (const obs::PhaseProfile& p : r.compile_phases) {
            if (p.name == name) return Datum::Double(p.seconds * 1e3);
          }
          return Datum::Null();
        };
        RowVector rows;
        for (const obs::RequestState& r : requests->Snapshot()) {
          Row row;
          row.push_back(Datum::Int(static_cast<int64_t>(r.query_id)));
          row.push_back(Datum::Int(static_cast<int64_t>(r.session_id)));
          row.push_back(Datum::Varchar(obs::RequestPhaseName(r.phase)));
          row.push_back(Datum::Varchar(r.sql));
          row.push_back(r.engine.empty() ? Datum::Null()
                                         : Datum::Varchar(r.engine));
          row.push_back(r.resource_class.empty()
                            ? Datum::Null()
                            : Datum::Varchar(r.resource_class));
          row.push_back(Datum::Bool(r.cache_hit));
          row.push_back(Datum::Bool(r.result_cache_hit));
          row.push_back(Datum::Double(r.submit_seconds));
          row.push_back(
              PhaseMs(r.compile_start_seconds, r.queue_start_seconds < 0
                                                   ? r.exec_start_seconds
                                                   : r.queue_start_seconds,
                      now));
          // Queue wait runs from entering the admission queue until a slot
          // was granted; still-queued requests measure against `now`.
          row.push_back(PhaseMs(r.queue_start_seconds, r.admit_seconds, now));
          row.push_back(PhaseMs(r.exec_start_seconds, r.end_seconds, now));
          double stop = r.end_seconds < 0 ? now : r.end_seconds;
          row.push_back(Datum::Double((stop - r.submit_seconds) * 1e3));
          row.push_back(Datum::Int(r.current_step));
          row.push_back(Datum::Int(r.total_steps));
          row.push_back(Datum::Int(r.TotalRetries()));
          row.push_back(Datum::Double(r.RowsMoved()));
          row.push_back(Datum::Double(r.BytesMoved()));
          row.push_back(r.error.empty() ? Datum::Null()
                                        : Datum::Varchar(r.error));
          row.push_back(phase_ms(r, "bind"));
          row.push_back(phase_ms(r, "normalize"));
          row.push_back(phase_ms(r, "memo"));
          row.push_back(phase_ms(r, "pdw_optimize"));
          row.push_back(Datum::Double(r.optimizer.memo_groups));
          row.push_back(Datum::Double(r.optimizer.memo_exprs));
          row.push_back(Datum::Bool(r.optimizer.budget_exhausted));
          row.push_back(Datum::Bool(r.optimizer.beam_used));
          rows.push_back(std::move(row));
        }
        return rows;
      });
}

Status InstallExecSteps(LocalEngine* engine,
                        const obs::RequestRegistry* requests) {
  TableDef def = ViewDef("sys.dm_pdw_exec_steps",
                         {{"request_id", TypeId::kInt, false},
                          {"step_index", TypeId::kInt, false},
                          {"kind", TypeId::kVarchar, false},
                          {"move_kind", TypeId::kVarchar, true},
                          {"dest_table", TypeId::kVarchar, true},
                          {"status", TypeId::kVarchar, false},
                          {"retries", TypeId::kInt, false},
                          {"rows_moved", TypeId::kDouble, false},
                          {"bytes_moved", TypeId::kDouble, false},
                          {"elapsed_ms", TypeId::kDouble, false},
                          {"compile_ms", TypeId::kDouble, false},
                          {"estimated_rows", TypeId::kDouble, false},
                          {"qerror", TypeId::kDouble, false},
                          {"sql_text", TypeId::kVarchar, true},
                          {"temp_insert_ms", TypeId::kDouble, false}});
  return engine->RegisterVirtualTable(
      std::move(def), [requests]() -> Result<RowVector> {
        RowVector rows;
        for (const obs::RequestState& r : requests->Snapshot()) {
          for (const obs::RequestStepState& s : r.steps) {
            const obs::StepProfile& p = s.profile;
            Row row;
            row.push_back(Datum::Int(static_cast<int64_t>(r.query_id)));
            row.push_back(Datum::Int(p.index));
            row.push_back(Datum::Varchar(p.kind));
            row.push_back(p.move_kind.empty() ? Datum::Null()
                                              : Datum::Varchar(p.move_kind));
            row.push_back(p.dest_table.empty() ? Datum::Null()
                                               : Datum::Varchar(p.dest_table));
            row.push_back(Datum::Varchar(s.status));
            row.push_back(Datum::Int(p.retries));
            // Rows moved by a DMS step, rows returned by the Return step.
            row.push_back(Datum::Double(p.actual_rows));
            row.push_back(Datum::Double(p.network.bytes));
            row.push_back(Datum::Double(p.measured_seconds * 1e3));
            row.push_back(Datum::Double(p.compile_seconds * 1e3));
            row.push_back(Datum::Double(p.estimated_rows));
            row.push_back(Datum::Double(p.MisestimateFactor()));
            row.push_back(p.sql.empty() ? Datum::Null()
                                        : Datum::Varchar(p.sql));
            row.push_back(Datum::Double(p.temp_insert_seconds * 1e3));
            rows.push_back(std::move(row));
          }
        }
        return rows;
      });
}

Status InstallDmsWorkers(LocalEngine* engine,
                         const obs::RequestRegistry* requests) {
  TableDef def = ViewDef("sys.dm_pdw_dms_workers",
                         {{"request_id", TypeId::kInt, false},
                          {"step_index", TypeId::kInt, false},
                          {"worker_type", TypeId::kVarchar, false},
                          {"status", TypeId::kVarchar, false},
                          {"bytes_processed", TypeId::kDouble, false},
                          {"seconds", TypeId::kDouble, false}});
  return engine->RegisterVirtualTable(
      std::move(def), [requests]() -> Result<RowVector> {
        RowVector rows;
        for (const obs::RequestState& r : requests->Snapshot()) {
          for (const obs::RequestStepState& s : r.steps) {
            const obs::StepProfile& p = s.profile;
            if (p.kind != "DMS") continue;
            const std::pair<const char*, const obs::ComponentProfile*>
                workers[] = {{"reader", &p.reader},
                             {"network", &p.network},
                             {"writer", &p.writer},
                             {"bulkcopy", &p.bulkcopy}};
            for (const auto& [name, meter] : workers) {
              Row row;
              row.push_back(Datum::Int(static_cast<int64_t>(r.query_id)));
              row.push_back(Datum::Int(p.index));
              row.push_back(Datum::Varchar(name));
              row.push_back(Datum::Varchar(s.status));
              row.push_back(Datum::Double(meter->bytes));
              row.push_back(Datum::Double(meter->seconds));
              rows.push_back(std::move(row));
            }
          }
        }
        return rows;
      });
}

Status InstallMetrics(LocalEngine* engine) {
  TableDef def = ViewDef("sys.dm_pdw_metrics",
                         {{"metric_name", TypeId::kVarchar, false},
                          {"metric_kind", TypeId::kVarchar, false},
                          {"value", TypeId::kDouble, false},
                          {"total", TypeId::kDouble, true},
                          {"mean", TypeId::kDouble, true},
                          {"min_value", TypeId::kDouble, true},
                          {"max_value", TypeId::kDouble, true},
                          {"p50", TypeId::kDouble, true},
                          {"p95", TypeId::kDouble, true},
                          {"p99", TypeId::kDouble, true}});
  return engine->RegisterVirtualTable(
      std::move(def), []() -> Result<RowVector> {
        obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
        RowVector rows;
        for (const auto& [name, value] : snap.counters) {
          rows.push_back({Datum::Varchar(name), Datum::Varchar("counter"),
                          Datum::Double(value), Datum::Null(), Datum::Null(),
                          Datum::Null(), Datum::Null(), Datum::Null(),
                          Datum::Null(), Datum::Null()});
        }
        for (const auto& [name, value] : snap.gauges) {
          rows.push_back({Datum::Varchar(name), Datum::Varchar("gauge"),
                          Datum::Double(value), Datum::Null(), Datum::Null(),
                          Datum::Null(), Datum::Null(), Datum::Null(),
                          Datum::Null(), Datum::Null()});
        }
        for (const auto& [name, h] : snap.histograms) {
          // `value` of a histogram row is its observation count.
          rows.push_back({Datum::Varchar(name), Datum::Varchar("histogram"),
                          Datum::Double(static_cast<double>(h.count)),
                          Datum::Double(h.sum), Datum::Double(h.Mean()),
                          Datum::Double(h.min), Datum::Double(h.max),
                          Datum::Double(h.Quantile(0.50)),
                          Datum::Double(h.Quantile(0.95)),
                          Datum::Double(h.Quantile(0.99))});
        }
        return rows;
      });
}

/// sys.dm_pdw_plan_cache and sys.dm_pdw_result_cache: one row per entry of
/// a control-node cache, most recently used first. The two views differ
/// only in their name and their fourth column, `size_column`, which
/// `size_of` fills from the cached value.
template <typename Value, typename SizeOf>
Status InstallCacheView(LocalEngine* engine, std::string name,
                        std::string size_column,
                        const StatsVersionedLru<Value>* cache,
                        SizeOf size_of) {
  TableDef def = ViewDef(std::move(name),
                         {{"sql_text", TypeId::kVarchar, false},
                          {"fingerprint", TypeId::kVarchar, false},
                          {"hits", TypeId::kInt, false},
                          {std::move(size_column), TypeId::kInt, false},
                          {"modeled_cost", TypeId::kDouble, false},
                          {"base_tables", TypeId::kVarchar, false}});
  return engine->RegisterVirtualTable(
      std::move(def), [cache, size_of]() -> Result<RowVector> {
        RowVector rows;
        cache->ForEachEntry([&](const std::string& sql,
                                const std::string& fingerprint, uint64_t hits,
                                const Value& value) {
          std::string tables;
          for (const auto& [table, version] : value.table_versions) {
            if (!tables.empty()) tables += ",";
            tables += table;
          }
          rows.push_back({Datum::Varchar(sql), Datum::Varchar(fingerprint),
                          Datum::Int(static_cast<int64_t>(hits)),
                          Datum::Int(size_of(value)),
                          Datum::Double(value.modeled_cost),
                          Datum::Varchar(tables)});
        });
        return rows;
      });
}

Status InstallWorkload(LocalEngine* engine, const WorkloadManager* workload) {
  TableDef def = ViewDef("sys.dm_pdw_workload",
                         {{"resource_class", TypeId::kVarchar, false},
                          {"concurrency_slots", TypeId::kInt, false},
                          {"active", TypeId::kInt, false},
                          {"queued", TypeId::kInt, false},
                          {"queue_capacity", TypeId::kInt, false},
                          {"admitted_total", TypeId::kInt, false},
                          {"rejected_total", TypeId::kInt, false},
                          {"cancelled_total", TypeId::kInt, false},
                          {"queue_wait_ms_total", TypeId::kDouble, false},
                          {"cost_threshold", TypeId::kDouble, false}});
  return engine->RegisterVirtualTable(
      std::move(def), [workload]() -> Result<RowVector> {
        RowVector rows;
        for (const WorkloadClassSnapshot& c : workload->Snapshot()) {
          Row row;
          row.push_back(Datum::Varchar(ResourceClassName(c.resource_class)));
          row.push_back(Datum::Int(c.concurrency_slots));
          row.push_back(Datum::Int(c.active));
          row.push_back(Datum::Int(c.queued));
          row.push_back(Datum::Int(c.queue_depth));
          row.push_back(Datum::Int(static_cast<int64_t>(c.admitted_total)));
          row.push_back(Datum::Int(static_cast<int64_t>(c.rejected_total)));
          row.push_back(Datum::Int(static_cast<int64_t>(c.cancelled_total)));
          row.push_back(Datum::Double(c.queue_wait_seconds_total * 1e3));
          row.push_back(Datum::Double(c.cost_threshold));
          rows.push_back(std::move(row));
        }
        return rows;
      });
}

}  // namespace

Status InstallSystemViews(LocalEngine* engine,
                          const obs::RequestRegistry* requests,
                          const PlanCache* plan_cache,
                          const WorkloadManager* workload,
                          const ResultCache* result_cache) {
  PDW_RETURN_NOT_OK(InstallExecRequests(engine, requests));
  PDW_RETURN_NOT_OK(InstallExecSteps(engine, requests));
  PDW_RETURN_NOT_OK(InstallDmsWorkers(engine, requests));
  PDW_RETURN_NOT_OK(InstallMetrics(engine));
  PDW_RETURN_NOT_OK(InstallCacheView(
      engine, "sys.dm_pdw_plan_cache", "num_steps", plan_cache,
      [](const CachedDsqlPlan& plan) {
        return static_cast<int64_t>(plan.dsql.steps.size());
      }));
  PDW_RETURN_NOT_OK(InstallWorkload(engine, workload));
  PDW_RETURN_NOT_OK(InstallCacheView(
      engine, "sys.dm_pdw_result_cache", "result_rows", result_cache,
      [](const CachedQueryResult& result) {
        return static_cast<int64_t>(result.rows.size());
      }));
  return Status::OK();
}

}  // namespace pdw
