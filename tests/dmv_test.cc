// The live-introspection subsystem end to end: sys.dm_pdw_* system views
// queried through ordinary SQL must observe requests *while they run* (from
// a second session thread, during a concurrent storm), aggregate like any
// other table on either execution engine, expose latency quantiles and
// both control-node caches, and export Chrome-trace JSON of a whole query.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

std::unique_ptr<Appliance> MakeLoadedAppliance(int nodes, double scale) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = scale;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

/// Runs a DMV query and returns its rows, failing the test on error.
RowVector Dmv(Appliance* appliance, const std::string& sql,
              const QueryOptions& options = {}) {
  auto r = appliance->Run(sql, options);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  return r.ok() ? std::move(r->rows) : RowVector{};
}

// A multi-step distributed join: customer/orders are incompatibly
// distributed at these scales, so the plan has DMS movement plus a Return
// step — enough steps for current_step to be observable mid-flight.
const char* kJoinSql =
    "SELECT c_name, o_totalprice FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_totalprice > 1000";

// --- the registry through SQL: finished requests -------------------------

TEST(DmvTest, FinishedRequestVisibleWithStepsAndWorkers) {
  auto appliance = MakeLoadedAppliance(3, 0.02);
  Session session = appliance->Connect();
  auto run = session.Run(kJoinSql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->query_id, 0u);

  std::string by_id = " WHERE request_id = " + std::to_string(run->query_id);
  RowVector reqs = Dmv(appliance.get(),
                       "SELECT status, cache_hit, total_steps, rows_moved, "
                       "total_ms FROM sys.dm_pdw_exec_requests" + by_id);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0][0].string_value(), "complete");
  EXPECT_FALSE(reqs[0][1].bool_value());
  EXPECT_EQ(reqs[0][2].int_value(),
            static_cast<int64_t>(run->dsql.steps.size()));
  EXPECT_GT(reqs[0][4].double_value(), 0);

  RowVector steps = Dmv(appliance.get(),
                        "SELECT step_index, kind, status, elapsed_ms "
                        "FROM sys.dm_pdw_exec_steps" + by_id +
                        " ORDER BY step_index");
  ASSERT_EQ(steps.size(), run->dsql.steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i][0].int_value(), static_cast<int64_t>(i));
    EXPECT_EQ(steps[i][2].string_value(), "complete");
  }
  EXPECT_EQ(steps.back()[1].string_value(), "RETURN");

  // Every DMS step exposes its four component workers.
  RowVector workers = Dmv(appliance.get(),
                          "SELECT worker_type, COUNT(*) AS c "
                          "FROM sys.dm_pdw_dms_workers" + by_id +
                          " GROUP BY worker_type");
  int dms_steps = 0;
  for (const auto& step : run->dsql.steps) {
    if (step.kind == DsqlStepKind::kDms) ++dms_steps;
  }
  if (dms_steps > 0) {
    ASSERT_EQ(workers.size(), 4u);
    for (const Row& w : workers) {
      EXPECT_EQ(w[1].int_value(), dms_steps) << w[0].string_value();
    }
  }
}

// --- the DMVs and the profile report the same facts -----------------------

// Every exec_steps, dms_workers and compile column of a finished request
// equals the query's own profile, down to the last bit: a step that retried
// after a transient fault, and the same statement again as a plan-cache hit.
TEST(DmvTest, StepAndCompileViewsMatchProfile) {
  auto appliance = MakeLoadedAppliance(3, 0.02);
  Session session = appliance->Connect();
  auto faults =
      fault::ParseFaultSchedule("appliance.step.dispatch:1:1:transient");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  RetryPolicy retry;
  retry.sleep_fn = [](double) {};
  auto retried = session.Run(
      kJoinSql, QueryOptions().WithRetry(retry).WithFaults(*faults));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  auto hit = session.Run(kJoinSql);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(retried->cache_hit);
  EXPECT_TRUE(hit->cache_hit);
  int retries = 0;
  for (const auto& s : retried->profile.steps) retries += s.retries;
  EXPECT_EQ(retries, 1);

  for (const ApplianceResult* run : {&*retried, &*hit}) {
    SCOPED_TRACE(run->cache_hit ? "plan-cache hit" : "retried compile");
    const obs::QueryProfile& p = run->profile;
    std::string by_id = " WHERE request_id = " + std::to_string(run->query_id);

    RowVector steps = Dmv(appliance.get(),
                          "SELECT step_index, retries, rows_moved, "
                          "bytes_moved, elapsed_ms, sql_text, status, "
                          "compile_ms, estimated_rows, qerror, "
                          "temp_insert_ms "
                          "FROM sys.dm_pdw_exec_steps" + by_id +
                          " ORDER BY step_index");
    ASSERT_EQ(steps.size(), p.steps.size());
    int dms_steps = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
      const obs::StepProfile& s = p.steps[i];
      if (s.kind == "DMS") ++dms_steps;
      EXPECT_EQ(steps[i][0].int_value(), s.index);
      EXPECT_EQ(steps[i][1].int_value(), s.retries);
      EXPECT_EQ(steps[i][2].double_value(), s.actual_rows);
      EXPECT_EQ(steps[i][3].double_value(), s.network.bytes);
      EXPECT_EQ(steps[i][4].double_value(), s.measured_seconds * 1e3);
      EXPECT_EQ(steps[i][5].string_value(), s.sql);
      EXPECT_EQ(steps[i][6].string_value(), "complete");
      EXPECT_EQ(steps[i][7].double_value(), s.compile_seconds * 1e3);
      // Misestimates are live columns, not only EXPLAIN ANALYZE markers.
      EXPECT_EQ(steps[i][8].double_value(), s.estimated_rows);
      EXPECT_EQ(steps[i][9].double_value(), s.MisestimateFactor());
      // Each executed step compiled its SQL once, inside its wall time.
      EXPECT_GT(s.compile_seconds, 0);
      EXPECT_LE(s.compile_seconds, s.measured_seconds);
      // A DMS step fills its destination temp inside its wall time; the
      // Return step has none.
      EXPECT_EQ(steps[i][10].double_value(), s.temp_insert_seconds * 1e3);
      if (s.kind == "DMS") {
        EXPECT_GT(s.temp_insert_seconds, 0);
        EXPECT_LE(s.temp_insert_seconds, s.measured_seconds);
      } else {
        EXPECT_EQ(s.temp_insert_seconds, 0);
      }
    }
    ASSERT_GT(dms_steps, 0);

    RowVector workers = Dmv(appliance.get(),
                            "SELECT step_index, worker_type, "
                            "bytes_processed, seconds "
                            "FROM sys.dm_pdw_dms_workers" + by_id);
    EXPECT_EQ(workers.size(), 4u * static_cast<size_t>(dms_steps));
    for (const Row& w : workers) {
      const obs::StepProfile& s =
          p.steps.at(static_cast<size_t>(w[0].int_value()));
      const std::string type = w[1].string_value();
      const obs::ComponentProfile* meter = nullptr;
      if (type == "reader") meter = &s.reader;
      if (type == "network") meter = &s.network;
      if (type == "writer") meter = &s.writer;
      if (type == "bulkcopy") meter = &s.bulkcopy;
      ASSERT_NE(meter, nullptr) << type;
      EXPECT_EQ(w[2].double_value(), meter->bytes) << type;
      EXPECT_EQ(w[3].double_value(), meter->seconds) << type;
    }

    RowVector req = Dmv(appliance.get(),
                        "SELECT bind_ms, normalize_ms, memo_ms, enumerate_ms, "
                        "memo_groups, memo_exprs, budget_exhausted, beam_used "
                        "FROM sys.dm_pdw_exec_requests" + by_id);
    ASSERT_EQ(req.size(), 1u);
    const char* phases[] = {"bind", "normalize", "memo", "pdw_optimize"};
    for (size_t k = 0; k < 4; ++k) {
      const obs::PhaseProfile* phase = nullptr;
      for (const obs::PhaseProfile& ph : p.compile_phases) {
        if (ph.name == phases[k]) phase = &ph;
      }
      if (phase == nullptr) {
        EXPECT_TRUE(req[0][k].is_null()) << phases[k];
      } else {
        EXPECT_EQ(req[0][k].double_value(), phase->seconds * 1e3) << phases[k];
      }
    }
    EXPECT_EQ(req[0][4].double_value(), p.optimizer.memo_groups);
    EXPECT_EQ(req[0][5].double_value(), p.optimizer.memo_exprs);
    EXPECT_EQ(req[0][6].bool_value(), p.optimizer.budget_exhausted);
    EXPECT_EQ(req[0][7].bool_value(), p.optimizer.beam_used);
  }
}

TEST(DmvTest, QueryIdsAreMonotonicallyUnique) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  uint64_t last = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = session.Run("SELECT COUNT(*) AS c FROM nation");
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->query_id, last);
    last = r->query_id;
    // The id threads through EXPLAIN ANALYZE and the JSON profile.
    EXPECT_NE(r->explain_text.find(
                  "[query " + std::to_string(r->query_id) + "]"),
              std::string::npos)
        << r->explain_text;
    EXPECT_NE(r->profile.ToJson().find("\"query_id\""), std::string::npos);
  }
}

// --- live observation during a concurrent storm --------------------------

TEST(DmvTest, StormObservedExecutingWithAdvancingSteps) {
  auto appliance = MakeLoadedAppliance(3, 0.02);
  Session session = appliance->Connect();
  // Per-step dispatch latency keeps every storm query in flight for a
  // deterministic, observable window without growing the dataset.
  appliance->set_dispatch_latency_seconds(0.005);

  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  constexpr int kThreads = 4;
  constexpr int kMaxReps = 200;
  std::vector<std::thread> storm;
  for (int t = 0; t < kThreads; ++t) {
    storm.emplace_back([&] {
      for (int rep = 0; rep < kMaxReps && !stop.load(); ++rep) {
        auto r = session.Run(kJoinSql);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        completed.fetch_add(1);
      }
    });
  }

  // Poll from this session thread until a storm query is seen mid-flight:
  // status 'executing' with a valid current step. The DMV request itself
  // appears in the view too (it is also a request), but with zero steps —
  // total_steps > 0 filters it out.
  bool seen_executing = false;
  bool seen_running_step = false;
  while (!(seen_executing && seen_running_step) &&
         completed.load() < kThreads * kMaxReps) {
    RowVector live = Dmv(appliance.get(),
                         "SELECT request_id, current_step, total_steps "
                         "FROM sys.dm_pdw_exec_requests "
                         "WHERE status = 'executing' AND current_step >= 0");
    for (const Row& r : live) {
      EXPECT_GE(r[1].int_value(), 0);
      EXPECT_LT(r[1].int_value(), r[2].int_value());
      seen_executing = true;
    }
    RowVector running = Dmv(appliance.get(),
                            "SELECT request_id, step_index "
                            "FROM sys.dm_pdw_exec_steps "
                            "WHERE status = 'running'");
    if (!running.empty()) seen_running_step = true;
  }
  stop.store(true);
  for (auto& t : storm) t.join();
  EXPECT_TRUE(seen_executing)
      << "never observed a request in status 'executing' ("
      << completed.load() << " storm queries completed)";
  EXPECT_TRUE(seen_running_step)
      << "never observed a step in status 'running'";

  // Once the storm drains, nothing is left active in the registry.
  EXPECT_EQ(appliance->requests().active_count(), 0u);
  RowVector still = Dmv(appliance.get(),
                        "SELECT COUNT(*) AS c FROM sys.dm_pdw_exec_requests "
                        "WHERE status = 'executing' AND total_steps > 0");
  ASSERT_EQ(still.size(), 1u);
  EXPECT_EQ(still[0][0].int_value(), 0);
}

// --- DMV-on-DMV aggregation, on both engines ------------------------------

TEST(DmvTest, AggregationOverViewsMatchesAcrossEngines) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  for (int i = 0; i < 4; ++i) {
    auto r = session.Run("SELECT COUNT(*) AS c FROM region");
    ASSERT_TRUE(r.ok());
  }
  const std::string agg =
      "SELECT status, COUNT(*) AS c, SUM(total_steps) AS s "
      "FROM sys.dm_pdw_exec_requests "
      "WHERE total_steps > 0 GROUP BY status ORDER BY status";
  QueryOptions row_engine;
  row_engine.execute.engine.engine = EngineKind::kRow;
  QueryOptions batch_engine;
  batch_engine.execute.engine.engine = EngineKind::kBatch;
  RowVector on_rows = Dmv(appliance.get(), agg, row_engine);
  RowVector on_batches = Dmv(appliance.get(), agg, batch_engine);
  // DMV requests themselves have zero steps, so the total_steps > 0 filter
  // makes the aggregate identical across the two runs: exactly the four
  // distributed region queries, on either engine.
  ASSERT_EQ(on_rows.size(), 1u);
  EXPECT_EQ(on_rows[0][0].string_value(), "complete");
  EXPECT_EQ(on_rows[0][1].int_value(), 4);
  EXPECT_TRUE(RowSetsEqual(on_rows, on_batches));

  // A DMV joined against itself through a derived table also works — the
  // views are ordinary leaves to the optimizer.
  RowVector joined = Dmv(appliance.get(),
                         "SELECT r.request_id, s.step_index "
                         "FROM sys.dm_pdw_exec_requests AS r, "
                         "sys.dm_pdw_exec_steps AS s "
                         "WHERE r.request_id = s.request_id AND "
                         "r.total_steps > 0");
  EXPECT_FALSE(joined.empty());
}

// --- metrics view: latency quantiles --------------------------------------

TEST(DmvTest, MetricsViewReportsQueryLatencyQuantiles) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  for (int i = 0; i < 5; ++i) {
    auto r = session.Run("SELECT COUNT(*) AS c FROM nation");
    ASSERT_TRUE(r.ok());
  }
  RowVector rows = Dmv(appliance.get(),
                       "SELECT value, mean, p50, p95, p99 "
                       "FROM sys.dm_pdw_metrics "
                       "WHERE metric_name = 'appliance.query.seconds'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0][0].double_value(), 5);  // observation count
  EXPECT_GT(rows[0][1].double_value(), 0);  // mean
  double p50 = rows[0][2].double_value();
  double p95 = rows[0][3].double_value();
  double p99 = rows[0][4].double_value();
  EXPECT_GT(p50, 0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);

  RowVector compile = Dmv(appliance.get(),
                          "SELECT value FROM sys.dm_pdw_metrics "
                          "WHERE metric_name = 'optimizer.compile.seconds'");
  ASSERT_EQ(compile.size(), 1u);
  EXPECT_GE(compile[0][0].double_value(), 5);

  // Every executed step observes its q-error, which is at least 1.
  RowVector qerror = Dmv(appliance.get(),
                         "SELECT value, min_value FROM sys.dm_pdw_metrics "
                         "WHERE metric_name = 'optimizer.qerror'");
  ASSERT_EQ(qerror.size(), 1u);
  EXPECT_GE(qerror[0][0].double_value(), 5);
  EXPECT_GE(qerror[0][1].double_value(), 1);
}

// --- plan cache view -------------------------------------------------------

TEST(DmvTest, PlanCacheViewShowsEntriesAndHits) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  QueryOptions cached;
  cached.compile.use_plan_cache = true;
  const char* sql = "SELECT COUNT(*) AS c FROM supplier";
  for (int i = 0; i < 3; ++i) {
    auto r = session.Run(sql, cached);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->cache_hit, i > 0);
  }
  RowVector rows = Dmv(appliance.get(),
                       "SELECT sql_text, hits, num_steps, base_tables "
                       "FROM sys.dm_pdw_plan_cache");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), NormalizeSqlForPlanCache(sql));
  EXPECT_EQ(rows[0][1].int_value(), 2);  // two of the three runs hit
  EXPECT_GT(rows[0][2].int_value(), 0);
  EXPECT_NE(rows[0][3].string_value().find("supplier"), std::string::npos);
}

// --- result cache view -----------------------------------------------------

TEST(DmvTest, ResultCacheViewShowsEntriesAndHits) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect(QueryOptions().WithResultCache());
  int64_t result_rows = -1;
  for (int i = 0; i < 3; ++i) {
    auto r = session.Run(kJoinSql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->result_cache_hit, i > 0);
    result_rows = static_cast<int64_t>(r->rows.size());
  }
  ASSERT_GT(result_rows, 0);
  RowVector rows = Dmv(appliance.get(),
                       "SELECT sql_text, hits, result_rows, base_tables "
                       "FROM sys.dm_pdw_result_cache");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), NormalizeSqlForPlanCache(kJoinSql));
  EXPECT_EQ(rows[0][1].int_value(), 2);  // two of the three runs hit
  EXPECT_EQ(rows[0][2].int_value(), result_rows);
  const std::string tables = rows[0][3].string_value();
  EXPECT_NE(tables.find("customer"), std::string::npos) << tables;
  EXPECT_NE(tables.find("orders"), std::string::npos) << tables;
}

// --- finished-request ring eviction ---------------------------------------

TEST(DmvTest, FinishedRingEvictsOldestBeyondCapacity) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  appliance->requests().set_ring_capacity(4);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    auto r = session.Run("SELECT COUNT(*) AS c FROM region");
    ASSERT_TRUE(r.ok());
    ids.push_back(r->query_id);
  }
  EXPECT_EQ(appliance->requests().finished_count(), 4u);
  std::set<uint64_t> kept;
  for (const auto& req : appliance->requests().Snapshot()) {
    kept.insert(req.query_id);
  }
  // The survivors are the four most recent requests.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(kept.count(ids[i]), i + 4 >= ids.size() ? 1u : 0u) << i;
  }
}

// --- failed requests -------------------------------------------------------

TEST(DmvTest, FailedRequestSurfacesErrorText) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  auto bad = session.Run("SELECT nope FROM no_such_table");
  ASSERT_FALSE(bad.ok());
  RowVector rows = Dmv(appliance.get(),
                       "SELECT sql_text, error_text "
                       "FROM sys.dm_pdw_exec_requests "
                       "WHERE status = 'failed'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0][0].string_value().find("no_such_table"),
            std::string::npos);
  EXPECT_FALSE(rows[0][1].is_null());
}

// --- Chrome trace export ---------------------------------------------------

TEST(DmvTest, TraceOutWritesLoadableChromeTraceJson) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  std::string path = ::testing::TempDir() + "pdw_dmv_trace.json";
  std::remove(path.c_str());
  QueryOptions options;
  options.observe.trace_out = path;
  auto r = session.Run(kJoinSql, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  // The chrome://tracing envelope with the whole query as one span tree:
  // the root appliance.run span plus compile and step phases under it.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("appliance.run"), std::string::npos);
  EXPECT_NE(json.find("compile.pipeline"), std::string::npos);
  EXPECT_NE(json.find("dsql.step"), std::string::npos);
  EXPECT_NE(json.find("dms.execute"), std::string::npos);
  EXPECT_EQ(json.find("appliance.run"), json.rfind("appliance.run"))
      << "expected exactly one root query span";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdw
