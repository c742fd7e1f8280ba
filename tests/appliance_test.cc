#include <gtest/gtest.h>

#include <memory>

#include "appliance/appliance.h"
#include "common/fault.h"
#include "obs/trace.h"
#include "pdw/baseline.h"
#include "test_util.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

/// Shared miniature TPC-H appliance (4 nodes, scale 0.05) — loading it once
/// keeps the suite fast while every test still runs real distributed
/// execution.
class TpchApplianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{4});
    session_ = new Session(appliance_->Connect());
    ASSERT_TRUE(tpch::CreateTpchTables(appliance_).ok());
    tpch::TpchConfig cfg;
    cfg.scale = 0.05;
    ASSERT_TRUE(tpch::LoadTpch(appliance_, cfg).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete appliance_;
    appliance_ = nullptr;
  }

  void ExpectMatchesReference(const std::string& sql) {
    auto dist = session_->Run(sql);
    ASSERT_TRUE(dist.ok()) << sql << "\n" << dist.status().ToString();
    auto ref = appliance_->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << sql << "\n" << ref.status().ToString();
    EXPECT_EQ(dist->rows.size(), ref->rows.size()) << sql;
    EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows))
        << sql << "\nplan:\n"
        << dist->plan_text;
  }

  static Appliance* appliance_;
  static Session* session_;
};

Appliance* TpchApplianceTest::appliance_ = nullptr;
Session* TpchApplianceTest::session_ = nullptr;

TEST_F(TpchApplianceTest, LoadDistributesRows) {
  // Hash-distributed table: rows split across nodes, none duplicated.
  size_t total = 0;
  for (int n = 0; n < 4; ++n) {
    auto rows = appliance_->compute_node(n).GetRows("orders");
    ASSERT_TRUE(rows.ok());
    total += (*rows)->size();
    EXPECT_GT((*rows)->size(), 0u);
  }
  auto ref = appliance_->ExecuteReference("SELECT COUNT(*) AS c FROM orders");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(static_cast<int64_t>(total), ref->rows[0][0].int_value());
  // Replicated table: full copy everywhere.
  for (int n = 0; n < 4; ++n) {
    auto rows = appliance_->compute_node(n).GetRows("nation");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ((*rows)->size(), 25u);
  }
}

TEST_F(TpchApplianceTest, GlobalStatsAreMergedFromNodes) {
  auto table = appliance_->shell().GetTable("orders");
  ASSERT_TRUE(table.ok());
  auto ref = appliance_->ExecuteReference("SELECT COUNT(*) AS c FROM orders");
  double true_rows = static_cast<double>(ref.ValueOrDie().rows[0][0].int_value());
  EXPECT_DOUBLE_EQ((*table)->stats.row_count, true_rows);
  // Distribution column NDV is exact (disjoint merge).
  const ColumnStats* key_stats = (*table)->GetColumnStats("o_orderkey");
  ASSERT_NE(key_stats, nullptr);
  EXPECT_DOUBLE_EQ(key_stats->distinct_count, true_rows);
}

TEST_F(TpchApplianceTest, CollocatedJoinMovesNothing) {
  auto r = session_->Run(
      "SELECT o_orderkey, COUNT(*) AS lines FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey GROUP BY o_orderkey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->dsql.steps.size(), 1u) << r->plan_text;  // Return only
  EXPECT_EQ(r->dms_metrics.rows_moved, 0);
}

TEST_F(TpchApplianceTest, SimpleProjectionFilters) {
  ExpectMatchesReference("SELECT c_custkey, c_name FROM customer WHERE "
                         "c_acctbal > 5000");
  ExpectMatchesReference("SELECT n_name FROM nation WHERE n_regionkey = 2");
  ExpectMatchesReference(
      "SELECT o_orderkey FROM orders WHERE o_orderdate BETWEEN "
      "DATE '1994-01-01' AND DATE '1994-12-31' AND o_totalprice > 100000");
  // A literal that spells a temp name is data: per-execution temp renaming
  // must leave it alone.
  ExpectMatchesReference(
      "SELECT 'TEMP_ID_1' AS tag, COUNT(*) AS c FROM nation");
}

TEST_F(TpchApplianceTest, JoinShapes) {
  ExpectMatchesReference(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 300000");
  ExpectMatchesReference(
      "SELECT s_name, n_name FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey AND n_name = 'CANADA'");
  ExpectMatchesReference(
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND l_quantity > 49");
  // The literal rides in the Return step after a SHUFFLE_MOVE.
  ExpectMatchesReference(
      "SELECT c_name, 'x TEMP_ID_0 y' AS tag FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderkey < 10");
}

TEST_F(TpchApplianceTest, LeftOuterJoin) {
  ExpectMatchesReference(
      "SELECT c_custkey, o_orderkey FROM customer c LEFT JOIN orders o "
      "ON c_custkey = o_custkey AND o_totalprice > 400000");
}

TEST_F(TpchApplianceTest, SemiAntiJoins) {
  ExpectMatchesReference(
      "SELECT s_name FROM supplier WHERE s_suppkey IN "
      "(SELECT ps_suppkey FROM partsupp WHERE ps_availqty > 9000)");
  ExpectMatchesReference(
      "SELECT c_custkey FROM customer WHERE c_custkey NOT IN "
      "(SELECT o_custkey FROM orders)");
  ExpectMatchesReference(
      "SELECT p_partkey FROM part WHERE EXISTS "
      "(SELECT ps_partkey FROM partsupp WHERE ps_partkey = p_partkey "
      " AND ps_supplycost < 10)");
}

TEST_F(TpchApplianceTest, AggregationShapes) {
  ExpectMatchesReference("SELECT COUNT(*) AS c FROM lineitem");
  ExpectMatchesReference(
      "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s "
      "FROM orders GROUP BY o_custkey");
  ExpectMatchesReference(
      "SELECT l_returnflag, AVG(l_quantity) AS aq FROM lineitem "
      "GROUP BY l_returnflag");
  ExpectMatchesReference(
      "SELECT o_orderkey, COUNT(*) AS c FROM orders GROUP BY o_orderkey "
      "HAVING COUNT(*) > 0");
  ExpectMatchesReference("SELECT DISTINCT c_mktsegment FROM customer");
  ExpectMatchesReference(
      "SELECT COUNT(DISTINCT o_custkey) AS distinct_customers FROM orders");
}

TEST_F(TpchApplianceTest, OrderByAndTopN) {
  auto dist = session_->Run(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10");
  ASSERT_TRUE(dist.ok());
  auto ref = appliance_->ExecuteReference(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10");
  ASSERT_TRUE(ref.ok());
  // Fully deterministic ordering: compare in order.
  ASSERT_EQ(dist->rows.size(), ref->rows.size());
  for (size_t i = 0; i < dist->rows.size(); ++i) {
    EXPECT_EQ(CompareRows(dist->rows[i], ref->rows[i]), 0) << i;
  }
}

TEST_F(TpchApplianceTest, ContradictionExecutesTrivially) {
  auto r = session_->Run(
      "SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(TpchApplianceTest, ExplainRendersPlanWithoutExecuting) {
  QueryOptions opts;
  opts.compile.explain_only = true;
  auto r = session_->Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r->explain_text;
  EXPECT_NE(text.find("parallel plan"), std::string::npos);
  EXPECT_NE(text.find("DSQL step"), std::string::npos);
  EXPECT_NE(text.find("RETURN"), std::string::npos);
  EXPECT_TRUE(r->rows.empty());
  // No temp tables created by Explain.
  for (int n = 0; n < 4; ++n) {
    for (const std::string& t :
         appliance_->compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos);
    }
  }
}

// Structural JSON sanity: balanced braces/brackets outside string literals
// and no trailing garbage (full grammar validation lives in obs_test).
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty();
}

TEST_F(TpchApplianceTest, ExecuteAnalyzeProfilesJoinAggregate) {
  const std::string sql =
      "SELECT c_name, SUM(o_totalprice) AS total FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_name";
  QueryOptions analyze;
  analyze.observe.collect_operator_actuals = true;
  auto r = session_->Run(sql, analyze);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryProfile& p = r->profile;

  // Every DSQL step is profiled, in order, and the plan needs a data move.
  ASSERT_EQ(p.steps.size(), r->dsql.steps.size());
  ASSERT_GE(p.steps.size(), 2u);
  bool saw_dms = false;
  for (size_t i = 0; i < p.steps.size(); ++i) {
    EXPECT_EQ(p.steps[i].index, static_cast<int>(i));
    if (p.steps[i].kind == "DMS") {
      saw_dms = true;
      EXPECT_FALSE(p.steps[i].move_kind.empty());
      EXPECT_NE(p.steps[i].dest_table.find("TEMP_ID"), std::string::npos);
      // Rows crossed DMS, so the per-component meters saw bytes.
      EXPECT_GT(p.steps[i].rows_moved, 0);
      EXPECT_GT(p.steps[i].reader.bytes, 0);
      EXPECT_GT(p.steps[i].network.bytes + p.steps[i].bulkcopy.bytes, 0);
    }
  }
  EXPECT_TRUE(saw_dms);

  // Estimated vs actual rows on the final step: the actuals are the real
  // result, the estimate comes from the cardinality model.
  const obs::StepProfile& last = p.steps.back();
  EXPECT_EQ(last.kind, "RETURN");
  EXPECT_EQ(last.actual_rows, static_cast<double>(r->rows.size()));
  EXPECT_GT(last.estimated_rows, 0);
  EXPECT_GE(last.MisestimateFactor(), 1.0);

  // Per-operator actuals were collected and the scans saw real rows.
  ASSERT_FALSE(last.operators.empty());
  EXPECT_GT(last.operators.front().actual_rows, 0);
  bool saw_nodes = false;
  for (const auto& op : last.operators) {
    if (op.nodes > 1) saw_nodes = true;
  }
  EXPECT_TRUE(saw_nodes);  // RETURN SQL runs on all 4 compute nodes

  // Fig. 2 compile phases all reported; the reproduction oracles (the XML
  // memo round trip and the §2.5 baseline) stay off the production compile.
  ASSERT_FALSE(p.compile_phases.empty());
  auto has_phase = [&](const char* phase) {
    for (const auto& ph : p.compile_phases) {
      if (ph.name == phase) return true;
    }
    return false;
  };
  for (const char* phase :
       {"parse", "bind", "normalize", "memo", "pdw_optimize", "dsql_gen"}) {
    EXPECT_TRUE(has_phase(phase)) << "missing compile phase " << phase;
  }
  for (const char* phase : {"xml_export", "xml_import", "baseline"}) {
    EXPECT_FALSE(has_phase(phase)) << "unexpected compile phase " << phase;
  }
  EXPECT_GT(p.compile_seconds, 0);

  // Multi-join query: the optimizer search counters must be live.
  EXPECT_GT(p.optimizer.groups, 0);
  EXPECT_GT(p.optimizer.options_considered, 0);
  EXPECT_GT(p.optimizer.options_kept, 0);
  EXPECT_GT(p.optimizer.options_pruned, 0);

  EXPECT_EQ(p.sql, sql);
  EXPECT_GT(p.measured_seconds, 0);
  EXPECT_TRUE(JsonBalanced(p.ToJson()));

  // Plain Execute carries the same profile minus per-operator actuals.
  auto plain = session_->Run(sql);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->profile.steps.size(), p.steps.size());
  EXPECT_TRUE(plain->profile.steps.back().operators.empty());
}

TEST_F(TpchApplianceTest, ExplainAnalyzeRendersEstimatedVsActual) {
  QueryOptions analyze;
  analyze.observe.collect_operator_actuals = true;
  auto r = session_->Run(
      "SELECT c_name, SUM(o_totalprice) AS total FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_name",
      analyze);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r->explain_text;
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("parallel plan"), std::string::npos);
  EXPECT_NE(text.find("DSQL step 0"), std::string::npos);
  EXPECT_NE(text.find("modeled cost"), std::string::npos);
  EXPECT_NE(text.find("measured"), std::string::npos);
  EXPECT_NE(text.find("est. rows"), std::string::npos);
  EXPECT_NE(text.find("actual rows"), std::string::npos);
  EXPECT_NE(text.find("dms: reader{"), std::string::npos);
  EXPECT_NE(text.find("optimizer: groups="), std::string::npos);
  EXPECT_NE(text.find("operators"), std::string::npos);
  // Per-node SQL wall times surface in the rendering.
  EXPECT_NE(text.find("nodes:"), std::string::npos);
  // Execution really happened, and temp tables were cleaned up after.
  for (int n = 0; n < 4; ++n) {
    for (const std::string& t :
         appliance_->compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos);
    }
  }
}

TEST_F(TpchApplianceTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_->Run("SELECT nope FROM customer").ok());
  EXPECT_FALSE(session_->Run("SELECT c_name FROM no_table").ok());
  EXPECT_FALSE(session_->Run("THIS IS NOT SQL").ok());
}

TEST_F(TpchApplianceTest, TempTablesAreCleanedUp) {
  auto r = session_->Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  ASSERT_TRUE(r.ok());
  for (int n = 0; n < 4; ++n) {
    for (const std::string& t : appliance_->compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos) << t;
    }
  }
}

// Each DSQL step compiles its SQL once and every source node runs that
// plan. A plan-cache hit skips the control-node compile, so every
// compile.memo span of the second run is a step compile.
TEST_F(TpchApplianceTest, EachDsqlStepCompilesOnce) {
  Appliance appliance(Topology{8});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  Session session = appliance.Connect();
  const std::string& sql = tpch::Queries()[2].sql;  // Q3
  ASSERT_TRUE(session.Run(sql).ok());

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  auto r = session.Run(sql);
  tracer.Disable();
  std::vector<obs::TraceRecord> spans = tracer.Snapshot();
  tracer.Clear();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cache_hit);
  ASSERT_GE(r->dsql.steps.size(), 2u);
  size_t compiles = 0;
  for (const obs::TraceRecord& span : spans) {
    if (span.name == "compile.memo") ++compiles;
  }
  EXPECT_EQ(compiles, r->dsql.steps.size());
}

// The delay fault at step dispatch is how a caller stretches a query: it
// delays every source node's dispatch of every step once.
TEST_F(TpchApplianceTest, DispatchDelayFaultDelaysEveryNodeOnce) {
  auto slow =
      fault::ParseFaultSchedule("appliance.step.dispatch:*:*:delay@0.002");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  uint64_t before = faults.InjectedCount("appliance.step.dispatch");
  auto r = session_->Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey",
      QueryOptions().WithFaults(*slow));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->profile.steps.size(), 2u);
  uint64_t dispatches = 0;
  for (const obs::StepProfile& step : r->profile.steps) {
    dispatches += step.node_seconds.size();
    EXPECT_GE(step.measured_seconds, 0.002) << "step " << step.index;
  }
  EXPECT_EQ(faults.InjectedCount("appliance.step.dispatch") - before,
            dispatches);
}

// --- the row oracle on TPC-H shapes ---

/// Loads TPC-H at scale 0.2, where every suite query and every step
/// checked below returns rows, onto a fresh `nodes`-node appliance.
std::unique_ptr<Appliance> MakeTpchAppliance(int nodes) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.2;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

/// `sql`, compiled once against `node`'s catalog, returns equal, non-empty
/// row sets on the batch engine and on the row oracle over `node`'s tables.
void ExpectEnginesAgreeOn(const LocalEngine& node, const std::string& sql) {
  testing::EngineRows got = testing::RunBothEngines(node, sql);
  ASSERT_TRUE(got.batch.ok()) << sql << "\n" << got.batch.status().ToString();
  ASSERT_TRUE(got.row.ok()) << sql << "\n" << got.row.status().ToString();
  EXPECT_FALSE(got.row->empty()) << sql;
  EXPECT_TRUE(RowSetsEqual(*got.batch, *got.row))
      << sql << "\nbatch: " << got.batch->size()
      << " rows, row oracle: " << got.row->size() << " rows";
}

// The only node of a one-node appliance holds every row, so each suite
// query runs there whole.
TEST(RowOracleTest, SuiteQueriesAgreeOnOneNode) {
  auto appliance = MakeTpchAppliance(1);
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    ExpectEnginesAgreeOn(appliance->compute_node(0), q.sql);
  }
}

// Node 0 of an 8-node appliance runs every DSQL step of the suite that
// reads only base tables, the local partial aggregates of pre-aggregated
// moves included.
TEST(RowOracleTest, BaseTableStepsAgreeOnOneNodeOfEight) {
  auto appliance = MakeTpchAppliance(8);
  int steps = 0, preagg_steps = 0;
  for (bool preagg : {false, true}) {
    PdwCompilerOptions options;
    options.pdw.enable_preagg = preagg;
    for (const tpch::TpchQuery& q : tpch::Queries()) {
      SCOPED_TRACE(q.name + (preagg ? " preagg on" : " preagg off"));
      auto comp = CompilePdwQuery(appliance->shell(), q.sql, options);
      ASSERT_TRUE(comp.ok()) << comp.status().ToString();
      auto dsql = GenerateDsql(*comp->parallel.plan, comp->output_names);
      ASSERT_TRUE(dsql.ok()) << dsql.status().ToString();
      for (const DsqlStep& step : dsql->steps) {
        // Earlier steps' results are TEMP_ID_<k> tables.
        if (step.sql.find("TEMP_ID_") != std::string::npos) continue;
        ExpectEnginesAgreeOn(appliance->compute_node(0), step.sql);
        ++steps;
        if (step.preagg) ++preagg_steps;
      }
    }
  }
  EXPECT_GT(steps, 0);
  EXPECT_GT(preagg_steps, 0) << "no local partial aggregate was checked";
}

// --- the full query suite as a parameterized sweep ---

class TpchQuerySuiteTest : public TpchApplianceTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(TpchQuerySuiteTest, DistributedMatchesReference) {
  const tpch::TpchQuery& q = tpch::Queries()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(q.name);
  ExpectMatchesReference(q.sql);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, TpchQuerySuiteTest,
    ::testing::Range(0, static_cast<int>(tpch::Queries().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return tpch::Queries()[static_cast<size_t>(info.param)].name;
    });

// --- node-count sweep: results must not depend on the topology ---

class TopologySweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweepTest, ResultsIndependentOfNodeCount) {
  Appliance appliance(Topology{GetParam()});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  Session session = appliance.Connect();
  for (const char* sql : {
           "SELECT o_custkey, SUM(o_totalprice) AS s FROM orders "
           "GROUP BY o_custkey",
           "SELECT c_name, o_totalprice FROM customer, orders "
           "WHERE c_custkey = o_custkey AND o_totalprice > 200000",
           "SELECT COUNT(*) AS c FROM lineitem, orders "
           "WHERE l_orderkey = o_orderkey",
       }) {
    auto dist = session.Run(sql);
    ASSERT_TRUE(dist.ok()) << sql << "\n" << dist.status().ToString();
    auto ref = appliance.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows))
        << "nodes=" << GetParam() << " sql=" << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, TopologySweepTest,
                         ::testing::Values(1, 2, 3, 8));

// --- skewed data still executes correctly (uniformity is a *cost model*
//     assumption, not a correctness requirement) ---

TEST(SkewTest, SkewedLoadStillCorrect) {
  Appliance appliance(Topology{4});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  cfg.skew = 3;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  const char* sql =
      "SELECT c_custkey, COUNT(*) AS c FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_custkey";
  auto dist = appliance.Connect().Run(sql);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  auto ref = appliance.ExecuteReference(sql);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows));
}

// --- baseline plans also execute and agree ---

TEST(BaselineExecutionTest, BaselinePlanProducesSameRows) {
  Appliance appliance(Topology{4});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  const char* sql =
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND l_quantity > 45";
  auto comp = CompilePdwQuery(appliance.shell(), sql);
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto pdw_run = appliance.ExecutePlan(*comp->parallel.plan, comp->output_names);
  ASSERT_TRUE(pdw_run.ok()) << pdw_run.status().ToString();
  auto baseline = BuildSerialBaseline(comp->serial.memo.get(),
                                      appliance.shell().topology());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto base_run = appliance.ExecutePlan(*baseline->plan, comp->output_names);
  ASSERT_TRUE(base_run.ok()) << base_run.status().ToString();
  EXPECT_TRUE(RowSetsEqual(pdw_run->rows, base_run->rows));
  // And the PDW plan moves no more bytes than the baseline.
  double pdw_bytes = pdw_run->dms_metrics.network.bytes +
                     pdw_run->dms_metrics.bulkcopy.bytes;
  double base_bytes = base_run->dms_metrics.network.bytes +
                      base_run->dms_metrics.bulkcopy.bytes;
  EXPECT_LE(pdw_bytes, base_bytes + 1);
}

}  // namespace
}  // namespace pdw
