// Seeded chaos differential suite. Each run derives a query, an engine, and
// a randomized fault schedule from one seed, executes it against the full
// appliance, and requires one of exactly two outcomes:
// the result matches the fault-free run of the same configuration, or the
// query fails with a clean Status — never a crash, a hang, or a wrong
// answer. After every run, zero TEMP_ID temp tables may survive anywhere
// and the appliance must stay serviceable.
//
// Also here: the fault-point coverage test (every registered injection
// point must be reachable, so dead sites fail CI) and the regression tests
// for aborting ExecutePipelined at every DMS stage.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "dms/dms_service.h"
#include "obs/metrics.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

using fault::FaultKind;
using fault::FaultRegistry;
using fault::FaultSchedule;
using fault::FaultSpec;

constexpr int kNodes = 3;

/// Fixed default so CI failures reproduce; PDW_CHAOS_SEED reruns one
/// reported seed (or explores new ones), PDW_CHAOS_RUNS resizes the sweep.
uint64_t BaseSeed() {
  if (const char* env = std::getenv("PDW_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20120520;
}

int NumRuns() {
  if (const char* env = std::getenv("PDW_CHAOS_RUNS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// A compact random-query generator over the TPC-H schema (FK-connected
/// joins, filters, optional aggregation and ORDER BY; no LIMIT, so results
/// are a fully determined multiset).
std::string BuildRandomQuery(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  struct Edge {
    const char* from;
    const char* to;
    const char* on;
  };
  // Each edge joins `from` (already chosen) to `to`.
  static const Edge kEdges[] = {
      {"customer", "orders", "c_custkey = o_custkey"},
      {"orders", "lineitem", "o_orderkey = l_orderkey"},
      {"lineitem", "supplier", "l_suppkey = s_suppkey"},
      {"lineitem", "part", "l_partkey = p_partkey"},
      {"customer", "nation", "c_nationkey = n_nationkey"},
  };
  static const char* kKeyCol[] = {"c_custkey", "o_orderkey", "l_orderkey",
                                  "s_suppkey", "p_partkey", "n_nationkey"};
  static const char* kTables[] = {"customer", "orders", "lineitem",
                                  "supplier", "part",    "nation"};

  int start = pick(6);
  std::vector<std::string> chosen = {kTables[start]};
  std::vector<std::string> conjuncts;
  int want = 1 + pick(3);
  for (int tries = 0; static_cast<int>(chosen.size()) < want && tries < 12;
       ++tries) {
    const Edge& e = kEdges[pick(5)];
    bool has_from = false, has_to = false;
    for (const std::string& t : chosen) {
      if (t == e.from) has_from = true;
      if (t == e.to) has_to = true;
    }
    if (!has_from || has_to) continue;
    chosen.push_back(e.to);
    conjuncts.push_back(e.on);
  }
  std::string group_col = kKeyCol[start];
  bool aggregate = pick(2) == 0;
  std::string sql = "SELECT ";
  if (aggregate) {
    sql += std::string(group_col) + ", COUNT(*) AS cnt";
  } else {
    sql += group_col;
  }
  sql += " FROM ";
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += chosen[i];
  }
  if (pick(2) == 0) {
    conjuncts.push_back(std::string(group_col) + " > " +
                        std::to_string(pick(100)));
  }
  if (!conjuncts.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conjuncts[i];
    }
  }
  if (aggregate) sql += " GROUP BY " + std::string(group_col);
  if (pick(2) == 0) sql += " ORDER BY " + std::string(group_col);
  return sql;
}

/// 1–3 specs drawn uniformly over all registered points and all kinds.
/// Delays use a near-zero duration: they perturb timing, never results.
FaultSchedule BuildRandomSchedule(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<std::string>& points = FaultRegistry::AllPoints();
  FaultSchedule schedule;
  int specs = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < specs; ++i) {
    FaultSpec spec;
    spec.point = points[rng() % points.size()];
    spec.query = 0;  // any query
    spec.count = 1 + static_cast<int>(rng() % 2);
    switch (rng() % 3) {
      case 0:
        spec.kind = FaultKind::kTransientError;
        break;
      case 1:
        spec.kind = FaultKind::kPermanentError;
        break;
      default:
        spec.kind = FaultKind::kDelay;
        spec.delay_seconds = 0.0002;
        break;
    }
    schedule.push_back(std::move(spec));
  }
  return schedule;
}

/// A query's DMS totals equal the sums over its step profiles, which hold
/// each step's successful attempt: a retried step's traffic counts once.
void ExpectDmsTotalsMatchSteps(const ApplianceResult& r) {
  double reader = 0, network = 0, writer = 0, bulkcopy = 0, rows = 0;
  for (const obs::StepProfile& step : r.profile.steps) {
    reader += step.reader.bytes;
    network += step.network.bytes;
    writer += step.writer.bytes;
    bulkcopy += step.bulkcopy.bytes;
    rows += step.rows_moved;
  }
  EXPECT_EQ(r.dms_metrics.reader.bytes, reader);
  EXPECT_EQ(r.dms_metrics.network.bytes, network);
  EXPECT_EQ(r.dms_metrics.writer.bytes, writer);
  EXPECT_EQ(r.dms_metrics.bulkcopy.bytes, bulkcopy);
  EXPECT_EQ(r.dms_metrics.rows_moved, rows);
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{kNodes});
    session_ = new Session(appliance_->Connect());
    ASSERT_TRUE(tpch::CreateTpchTables(appliance_).ok());
    tpch::TpchConfig cfg;
    cfg.scale = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(appliance_, cfg).ok());
    // A dim/fact pair where partial-aggregate pushdown is actually chosen
    // (TPC-H dimensions at this scale are cheap to broadcast, so TPC-H
    // alone never exercises the pushed shape under faults): fact has 50
    // distinct join keys over 6000 rows and is distributed on an
    // unrelated column, dim is too wide to broadcast for free.
    ASSERT_TRUE(appliance_
                    ->CreateTableSql(
                        "CREATE TABLE dim (d_key INT NOT NULL, d_grp INT, "
                        "d_name VARCHAR(16)) "
                        "WITH (DISTRIBUTION = HASH(d_key))")
                    .ok());
    ASSERT_TRUE(appliance_
                    ->CreateTableSql(
                        "CREATE TABLE fact (f_key INT, f_val DOUBLE, "
                        "f_uniq INT) "
                        "WITH (DISTRIBUTION = HASH(f_uniq))")
                    .ok());
    RowVector dim_rows;
    for (int i = 0; i < 2000; ++i) {
      dim_rows.push_back({Datum::Int(i), Datum::Int(i % 10),
                          Datum::Varchar("d" + std::to_string(i % 16))});
    }
    ASSERT_TRUE(appliance_->LoadRows("dim", dim_rows).ok());
    RowVector fact_rows;
    for (int i = 0; i < 6000; ++i) {
      fact_rows.push_back({i % 97 == 0 ? Datum::Null() : Datum::Int(i % 50),
                           i % 23 == 0 ? Datum::Null()
                                       : Datum::Double(i % 90),
                           Datum::Int(i)});
    }
    ASSERT_TRUE(appliance_->LoadRows("fact", fact_rows).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete appliance_;
    appliance_ = nullptr;
  }
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }

  static void ExpectNoTempLitter(const char* when) {
    for (int n = 0; n < kNodes; ++n) {
      for (const std::string& t :
           appliance_->compute_node(n).catalog().ListTables()) {
        EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
            << when << ": leaked " << t << " on node " << n;
      }
    }
    for (const std::string& t :
         appliance_->control_engine().catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
          << when << ": leaked " << t << " on control";
    }
  }

  static Appliance* appliance_;
  static Session* session_;
};

Appliance* ChaosTest::appliance_ = nullptr;
Session* ChaosTest::session_ = nullptr;

TEST_F(ChaosTest, SeededDifferentialSweep) {
  uint64_t base = BaseSeed();
  int runs = NumRuns();
  const auto& tpch_queries = tpch::Queries();
  int failures = 0, matches = 0;
  for (int run = 0; run < runs; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);

    std::string sql = rng() % 2 == 0
                          ? tpch_queries[rng() % tpch_queries.size()].sql
                          : BuildRandomQuery(seed);
    QueryOptions options;
    options.execute.engine.engine =
        rng() % 2 == 0 ? EngineKind::kRow : EngineKind::kBatch;
    options.compile.use_plan_cache = rng() % 4 == 0;
    options.compile.compiler.pdw.enable_preagg = rng() % 2 == 0 ? 1 : 0;
    options.execute.retry.max_attempts = 3;
    options.execute.retry.sleep_fn = [](double) {};  // fake clock: no real backoff

    FaultSchedule schedule = BuildRandomSchedule(seed);
    SCOPED_TRACE("chaos seed=" + std::to_string(seed) + " schedule=" +
                 fault::FaultScheduleToString(schedule) + " engine=" +
                 (options.execute.engine.engine == EngineKind::kRow ? "row" : "batch") +
                 " preagg=" +
                 std::to_string(options.compile.compiler.pdw.enable_preagg) +
                 "\nsql: " + sql);

    // Fault-free reference of the exact same configuration.
    auto reference = session_->Run(sql, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectDmsTotalsMatchSteps(*reference);

    options.execute.faults = schedule;
    auto chaotic = session_->Run(sql, options);
    if (chaotic.ok()) {
      ++matches;
      ExpectDmsTotalsMatchSteps(*chaotic);
      EXPECT_EQ(chaotic->rows.size(), reference->rows.size());
      EXPECT_TRUE(RowSetsEqual(chaotic->rows, reference->rows))
          << "rows diverged from the fault-free reference";
      EXPECT_EQ(chaotic->column_names, reference->column_names);
    } else {
      // A clean failure: a classified Status with a message, nothing more.
      ++failures;
      EXPECT_FALSE(chaotic.status().message().empty());
      StatusCode code = chaotic.status().code();
      EXPECT_TRUE(code == StatusCode::kExecutionError ||
                  code == StatusCode::kTransient)
          << chaotic.status().ToString();
    }
    ExpectNoTempLitter("after chaos run");
  }
  // The schedule mix guarantees both outcomes appear across a full sweep —
  // a sweep where nothing ever failed (or nothing ever survived) means the
  // injection or the retry path silently stopped working.
  if (runs >= 50) {
    EXPECT_GT(failures, 0) << "no chaos run failed: injection is dead";
    EXPECT_GT(matches, 0) << "no chaos run survived: retry/recovery is dead";
  }
  // The appliance stays serviceable after the whole sweep.
  auto after = session_->Run("SELECT COUNT(*) AS c FROM lineitem");
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  // The request registry drained with the sweep: nothing is still active,
  // and every request the DMV layer can see landed in a terminal phase —
  // injected-fault runs as 'failed' (with error text), survivors as
  // 'complete'. Mid-flight states leaking past the end of a query would
  // show up here as 'executing'/'compiling' rows.
  EXPECT_EQ(appliance_->requests().active_count(), 0u);
  // The snapshot includes the DMV query observing it, which is mid-flight
  // with zero steps by definition; every other request must be terminal.
  auto dmv = session_->Run(
      "SELECT status, COUNT(*) AS c FROM sys.dm_pdw_exec_requests "
      "WHERE NOT (status = 'executing' AND total_steps = 0) "
      "GROUP BY status");
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  for (const Row& r : dmv->rows) {
    EXPECT_TRUE(r[0].string_value() == "complete" ||
                r[0].string_value() == "failed")
        << "non-terminal request leaked: " << r[0].string_value();
  }
  auto failed = session_->Run(
      "SELECT error_text FROM sys.dm_pdw_exec_requests "
      "WHERE status = 'failed'");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  for (const Row& r : failed->rows) {
    EXPECT_FALSE(r[0].is_null()) << "failed request without an error";
  }
}

// Pushed partial-aggregate plans through the full fault matrix: with
// pushdown enabled (and verified chosen for the high-reduction query),
// every chaotic run must either byte-match its fault-free reference of
// the identical configuration or fail with a clean classified Status —
// and never leak a temp table. The split plan has more steps (partial
// agg, its shuffle, the global phase) and therefore more distinct fault
// interleavings than the classic shape.
TEST_F(ChaosTest, PreaggPlansSurviveChaos) {
  const char* kQueries[] = {
      "SELECT d_grp, SUM(f_val) AS s, COUNT(f_val) AS c "
      "FROM fact, dim WHERE f_key = d_key GROUP BY d_grp",
      "SELECT d_grp, AVG(f_val) AS a FROM fact, dim "
      "WHERE f_key = d_key GROUP BY d_grp",
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey",
  };
  PdwCompilerOptions compiler;
  compiler.pdw.enable_preagg = 1;
  // The pushed shape must actually be on the wire for the dim/fact query.
  auto comp = CompilePdwQuery(appliance_->shell(), kQueries[0], compiler);
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  ASSERT_TRUE(comp->parallel.preagg_chosen);

  uint64_t base = BaseSeed() ^ 0x5ee0f1a7ull;
  int failures = 0, matches = 0;
  for (int run = 0; run < 60; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    const char* sql = kQueries[rng() % 3];
    QueryOptions options;
    options.compile.compiler = compiler;
    options.execute.engine.engine =
        rng() % 2 == 0 ? EngineKind::kRow : EngineKind::kBatch;
    options.execute.retry.max_attempts = 3;
    options.execute.retry.sleep_fn = [](double) {};
    FaultSchedule schedule = BuildRandomSchedule(seed);
    SCOPED_TRACE("preagg chaos seed=" + std::to_string(seed) + " schedule=" +
                 fault::FaultScheduleToString(schedule) + "\nsql: " + sql);

    auto reference = session_->Run(sql, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    options.execute.faults = schedule;
    auto chaotic = session_->Run(sql, options);
    if (chaotic.ok()) {
      ++matches;
      EXPECT_TRUE(RowSetsEqual(chaotic->rows, reference->rows))
          << "rows diverged from the fault-free reference";
    } else {
      ++failures;
      EXPECT_FALSE(chaotic.status().message().empty());
      StatusCode code = chaotic.status().code();
      EXPECT_TRUE(code == StatusCode::kExecutionError ||
                  code == StatusCode::kTransient)
          << chaotic.status().ToString();
    }
    ExpectNoTempLitter("after preagg chaos run");
  }
  EXPECT_GT(failures, 0) << "no preagg chaos run failed: injection is dead";
  EXPECT_GT(matches, 0) << "no preagg chaos run survived: recovery is dead";
}

TEST_F(ChaosTest, TransientStepFailureRetriesVisibly) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  double attempts_before = metrics.counter("retry.attempts");
  double injected_before = metrics.counter("fault.injected.total");

  QueryOptions options;
  options.execute.retry.max_attempts = 3;
  options.execute.retry.sleep_fn = [](double) {};
  ASSERT_TRUE(
      fault::ParseFaultSchedule("appliance.step.dispatch:*:1:transient").ok());
  options.execute.faults = {{"appliance.step.dispatch", 0, 1,
                     FaultKind::kTransientError}};

  auto result = session_->Run(
      "SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP BY o_custkey",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The retried step is visible in the profile, EXPLAIN ANALYZE, the JSON
  // profile, and the metrics registry.
  int total_retries = 0;
  for (const auto& step : result->profile.steps) total_retries += step.retries;
  EXPECT_GE(total_retries, 1);
  EXPECT_NE(result->explain_text.find("[retries="), std::string::npos)
      << result->explain_text;
  EXPECT_NE(result->profile.ToJson().find("\"retries\":"), std::string::npos);
  EXPECT_GE(metrics.counter("retry.attempts"), attempts_before + 1);
  EXPECT_GT(metrics.counter("retry.backoff_seconds"), 0.0);
  EXPECT_GE(metrics.counter("fault.injected.total"), injected_before + 1);
  EXPECT_GE(metrics.counter("fault.injected.transient"), 1.0);

  // And the injected-then-recovered query still answers correctly.
  auto reference = appliance_->ExecuteReference(
      "SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP BY o_custkey");
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(RowSetsEqual(result->rows, reference->rows));
  ExpectNoTempLitter("after retried query");

  // The DMV layer reports the same retry counts as the step profile, and
  // the recovered request finished as 'complete' with every step complete.
  auto steps = session_->Run(
      "SELECT step_index, retries, status FROM sys.dm_pdw_exec_steps "
      "WHERE request_id = " + std::to_string(result->query_id));
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  ASSERT_EQ(steps->rows.size(), result->profile.steps.size());
  int dmv_retries = 0;
  for (const Row& r : steps->rows) {
    dmv_retries += static_cast<int>(r[1].int_value());
    EXPECT_EQ(r[2].string_value(), "complete");
  }
  EXPECT_EQ(dmv_retries, total_retries);
  auto req = session_->Run(
      "SELECT status, retries FROM sys.dm_pdw_exec_requests "
      "WHERE request_id = " + std::to_string(result->query_id));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  ASSERT_EQ(req->rows.size(), 1u);
  EXPECT_EQ(req->rows[0][0].string_value(), "complete");
  EXPECT_EQ(static_cast<int>(req->rows[0][1].int_value()), total_retries);
  EXPECT_EQ(appliance_->requests().active_count(), 0u);

  // A DMS step retried because its destination temp failed to materialize
  // moved its rows twice, and the query's DMS totals count them once.
  QueryOptions temp_fault;
  temp_fault.execute.retry.max_attempts = 3;
  temp_fault.execute.retry.sleep_fn = [](double) {};
  auto schedule =
      fault::ParseFaultSchedule("appliance.temp.create:1:1:transient");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  temp_fault.execute.faults = *schedule;
  auto moved = session_->Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey",
      temp_fault);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  int dms_retries = 0;
  for (const auto& step : moved->profile.steps) {
    if (step.kind == "DMS") dms_retries += step.retries;
  }
  EXPECT_EQ(dms_retries, 1);
  EXPECT_GT(moved->dms_metrics.network.bytes, 0);
  ExpectDmsTotalsMatchSteps(*moved);
}

TEST_F(ChaosTest, PermanentFaultAbortsCleanlyAndApplianceStaysUp) {
  QueryOptions options;
  options.execute.retry.max_attempts = 3;
  options.execute.retry.sleep_fn = [](double) {};
  options.execute.faults = {{"dms.bulkcopy", 0, -1, FaultKind::kPermanentError}};
  auto result = session_->Run(
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey",
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("dms.bulkcopy"), std::string::npos);
  ExpectNoTempLitter("after permanent fault");

  auto ok = session_->Run("SELECT COUNT(*) AS c FROM customer");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ChaosTest, TransientFaultsExhaustingRetriesFailCleanly) {
  QueryOptions options;
  options.execute.retry.max_attempts = 2;
  options.execute.retry.sleep_fn = [](double) {};
  options.execute.faults = {{"appliance.step.dispatch", 0, -1,
                     FaultKind::kTransientError}};
  auto result = session_->Run("SELECT COUNT(*) AS c FROM orders", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransient);
  ExpectNoTempLitter("after exhausted retries");
}

// Faults at the admission decision itself must never leak workload state:
// the "wlm.admit" point fires before any slot or queue mutation, so a
// faulted admission leaves no held slot and no queued waiter behind. A
// concurrent storm where a third of the admissions blow up must drain to
// zero active/queued across every resource class. The faults are one
// process-wide schedule of kThreads / 3 firings, so exactly a third fail:
// a spec each query armed for itself with query# '*' would match its
// concurrent neighbours too, and could go unfired when its owner hit a
// neighbour's spec first.
TEST_F(ChaosTest, AdmissionFaultsNeverLeakSlotsOrWaiters) {
  constexpr int kThreads = 9;
  uint64_t token = FaultRegistry::Global().Arm(
      {{"wlm.admit", 0, kThreads / 3 - 1, FaultKind::kPermanentError},
       {"wlm.admit", 0, 1, FaultKind::kTransientError}});
  std::atomic<int> survived{0}, faulted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session = appliance_->Connect();
      auto r = session.Run("SELECT COUNT(*) AS c FROM nation");
      if (r.ok()) {
        survived.fetch_add(1);
      } else {
        faulted.fetch_add(1);
        StatusCode code = r.status().code();
        EXPECT_TRUE(code == StatusCode::kExecutionError ||
                    code == StatusCode::kTransient)
            << r.status().ToString();
      }
    });
  }
  for (auto& th : threads) th.join();
  FaultRegistry::Global().Disarm(token);
  EXPECT_EQ(survived.load(), kThreads - kThreads / 3);
  EXPECT_EQ(faulted.load(), kThreads / 3);
  for (const WorkloadClassSnapshot& s : appliance_->workload().Snapshot()) {
    EXPECT_EQ(s.active, 0) << "leaked slot in class "
                           << ResourceClassName(s.resource_class);
    EXPECT_EQ(s.queued, 0) << "leaked waiter in class "
                           << ResourceClassName(s.resource_class);
  }
  // Every faulted request landed terminal and the appliance still admits.
  EXPECT_EQ(appliance_->requests().active_count(), 0u);
  auto after = session_->Run("SELECT COUNT(*) AS c FROM region");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectNoTempLitter("after admission-fault storm");
}

// Every registered injection point must be traversed by the covering
// query below — a FAULT_POINT site that exists in the canonical list but
// is no longer reachable (dead code, renamed stage) fails here instead of
// silently rotting. The armed spec is a single zero-duration delay, so
// traversal is recorded without perturbing any result.
TEST_F(ChaosTest, AllFaultPointsReachable) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec harmless{"pool.task_start", 0, 1, FaultKind::kDelay};
  harmless.delay_seconds = 0;
  uint64_t token = reg.Arm({harmless});

  const std::string join_sql =
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey";
  // plan_cache.fill is traversed on the insert after a cache miss. The
  // suite shares one appliance and the cache is on by default, so an
  // earlier test may already have cached this statement — clear first to
  // force the miss.
  appliance_->plan_cache().Clear();
  auto r = session_->Run(join_sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  reg.Disarm(token);

  for (const std::string& point : FaultRegistry::AllPoints()) {
    EXPECT_GT(reg.HitCount(point), 0u)
        << "fault point '" << point
        << "' was never traversed by the covering query — dead site?";
  }
  for (const auto& [point, hits] : reg.HitCounts()) {
    EXPECT_TRUE(FaultRegistry::IsKnownPoint(point))
        << "Check() was called with unregistered point '" << point << "'";
  }
}

// Regression: an error in the middle of ExecutePipelined must stop every
// sender at its next batch and return the fault as a clean Status, with
// many wire batches per source still in flight; the pool and the DMS then
// serve the next movement.
class PipelineAbortTest : public ::testing::TestWithParam<
                              std::tuple<std::string, FaultKind>> {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_P(PipelineAbortTest, AbortedPipelineLeavesPoolUsable) {
  const auto& [point, kind] = GetParam();
  SCOPED_TRACE(point);
  FaultRegistry& reg = FaultRegistry::Global();
  uint64_t token = reg.Arm({{point, 0, 1, kind}});

  DmsService dms(4);
  std::vector<DmsProducer> producers(5);
  for (int n = 0; n < 4; ++n) {
    producers[static_cast<size_t>(n)] = [n]() -> Result<RowVector> {
      RowVector rows;
      for (int r = 0; r < 4000; ++r) {
        rows.push_back({Datum::Int(n * 4000 + r), Datum::Double(r * 0.5)});
      }
      return rows;
    };
  }
  DmsExecOptions options;
  options.batch_size = 64;  // many wire messages per source
  DmsRunMetrics metrics;
  auto routed = dms.ExecutePipelined(DmsOpKind::kShuffle, std::move(producers),
                                     {0}, &metrics, &ThreadPool::Global(),
                                     options);
  // The injected fault must surface as a clean error naming its point.
  ASSERT_FALSE(routed.ok());
  EXPECT_NE(routed.status().message().find(point), std::string::npos)
      << routed.status().ToString();
  reg.Disarm(token);

  // The pool and DMS stay usable for the next movement.
  std::vector<DmsProducer> retry_producers(5);
  for (int n = 0; n < 4; ++n) {
    retry_producers[static_cast<size_t>(n)] = [n]() -> Result<RowVector> {
      RowVector rows;
      for (int r = 0; r < 100; ++r) {
        rows.push_back({Datum::Int(n * 100 + r), Datum::Double(r * 0.5)});
      }
      return rows;
    };
  }
  DmsRunMetrics retry_metrics;
  auto ok = dms.ExecutePipelined(DmsOpKind::kShuffle,
                                 std::move(retry_producers), {0},
                                 &retry_metrics, &ThreadPool::Global());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(static_cast<int>(retry_metrics.rows_moved), 400);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, PipelineAbortTest,
    ::testing::Combine(::testing::Values("dms.pack", "dms.queue_push",
                                         "dms.network", "dms.unpack",
                                         "dms.bulkcopy"),
                       ::testing::Values(FaultKind::kTransientError,
                                         FaultKind::kPermanentError)),
    [](const ::testing::TestParamInfo<PipelineAbortTest::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + (std::get<1>(info.param) == FaultKind::kTransientError
                         ? "_transient"
                         : "_permanent");
    });

}  // namespace
}  // namespace pdw
