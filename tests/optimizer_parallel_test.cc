// Beam fallback must degrade gracefully: near-optimal where full DP is
// feasible to compare, able to order 20+-relation cliques that full DP
// cannot touch, and with the beam disabled the single seeded left-deep
// order. Also covers the budget/beam observability surface (EXPLAIN
// warning, DMV columns).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "appliance/appliance.h"
#include "obs/metrics.h"
#include "optimizer/join_stress.h"
#include "optimizer/serial_optimizer.h"
#include "pdw/compiler.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

struct ShapeCase {
  JoinStressShape shape;
  int relations;
};

MemoOptions FullDpOptions() {
  MemoOptions opts;
  opts.max_dp_relations = 15;
  opts.expr_budget = 10'000'000;
  return opts;
}

MemoOptions BeamOptions(int beam_width) {
  MemoOptions opts;
  opts.max_dp_relations = 4;  // force the beam path for every stress size
  opts.beam_width = beam_width;
  return opts;
}

TEST(ParallelMemoTest, BeamPlanCostWithinTenPercentOfFullDp) {
  // Shapes where a width-64 beam provably (chain: every interval survives)
  // or reliably (clique: uniform keys) keeps the optimal split reachable.
  const ShapeCase cases[] = {
      {JoinStressShape::kChain, 12},
      {JoinStressShape::kClique, 10},
  };
  for (const ShapeCase& c : cases) {
    JoinStressQuery q = MakeJoinStressQuery({c.shape, c.relations, 11});
    auto full = CompileQuery(q.catalog, q.sql, FullDpOptions());
    auto beam = CompileQuery(q.catalog, q.sql, BeamOptions(64));
    ASSERT_TRUE(full.ok() && beam.ok());
    EXPECT_FALSE(full->memo->budget_exhausted());
    EXPECT_TRUE(beam->memo->budget_exhausted());
    EXPECT_TRUE(beam->memo->beam_used());
    ASSERT_TRUE(ExtractBestSerialPlan(full->memo.get()).ok());
    ASSERT_TRUE(ExtractBestSerialPlan(beam->memo.get()).ok());
    double full_cost = SerialWinnerCost(full->memo.get(), full->memo->root());
    double beam_cost = SerialWinnerCost(beam->memo.get(), beam->memo->root());
    EXPECT_GE(beam_cost, full_cost * 0.999)
        << "beam cannot beat exhaustive DP";
    EXPECT_LE(beam_cost, full_cost * 1.10)
        << JoinStressShapeName(c.shape) << "-" << c.relations;
  }
}

TEST(ParallelMemoTest, CliqueTwentyRelationsCompletesViaBeam) {
  JoinStressQuery q = MakeJoinStressQuery({JoinStressShape::kClique, 20, 2});
  MemoOptions opts;  // stock knobs: 20 > max_dp_relations forces the beam
  auto r = CompileQuery(q.catalog, q.sql, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->memo->budget_exhausted());
  EXPECT_TRUE(r->memo->beam_used());
  auto plan = ExtractBestSerialPlan(r->memo.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  double cost = SerialWinnerCost(r->memo.get(), r->memo->root());
  EXPECT_GT(cost, 0);
  EXPECT_LT(cost, 1e300);
}

TEST(ParallelMemoTest, BeamWidthZeroFallsBackToSeededChain) {
  JoinStressQuery q = MakeJoinStressQuery({JoinStressShape::kClique, 12, 2});
  MemoOptions opts;
  opts.max_dp_relations = 4;
  opts.beam_width = 0;  // beam off: the pre-existing single seeded order
  auto r = CompileQuery(q.catalog, q.sql, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->memo->budget_exhausted());
  EXPECT_FALSE(r->memo->beam_used());
  EXPECT_TRUE(ExtractBestSerialPlan(r->memo.get()).ok());
}

// --- observability: EXPLAIN warning + DMV columns ------------------------

TEST(OptimizerObservabilityTest, BudgetWarningAndDmvColumns) {
  auto appliance = std::make_unique<Appliance>(Topology{2});
  ASSERT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.01;
  ASSERT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  Session session = appliance->Connect();

  const std::string join_sql =
      "SELECT c_name FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey";

  // A healthy compile: memo stats populated, no degradation.
  auto healthy = session.Run(join_sql);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  {
    auto rows = appliance->Run(
        "SELECT memo_groups, memo_exprs, budget_exhausted, beam_used, "
        "memo_ms FROM sys.dm_pdw_exec_requests WHERE request_id = " +
        std::to_string(healthy->query_id));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
    EXPECT_GT(rows->rows[0][0].double_value(), 0);
    EXPECT_GT(rows->rows[0][1].double_value(), 0);
    EXPECT_FALSE(rows->rows[0][2].bool_value());
    EXPECT_FALSE(rows->rows[0][3].bool_value());
    EXPECT_GE(rows->rows[0][4].double_value(), 0);
  }
  EXPECT_EQ(healthy->profile.ToJson().find("\"budget_exhausted\":true"),
            std::string::npos);

  // Starve the budget: the beam engages and every surface reports it.
  PdwCompilerOptions starved;
  starved.memo.expr_budget = 10;
  QueryOptions options;
  options.WithCompilerOptions(starved).WithPlanCache(false);
  auto degraded = session.Run(join_sql, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_NE(degraded->profile.ToText().find(
                "WARNING: join enumeration degraded"),
            std::string::npos)
      << degraded->profile.ToText();
  EXPECT_NE(degraded->profile.ToJson().find("\"budget_exhausted\":true"),
            std::string::npos);
  {
    auto rows = appliance->Run(
        "SELECT budget_exhausted, beam_used, bind_ms, normalize_ms "
        "FROM sys.dm_pdw_exec_requests WHERE request_id = " +
        std::to_string(degraded->query_id));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
    EXPECT_TRUE(rows->rows[0][0].bool_value());
    EXPECT_TRUE(rows->rows[0][1].bool_value());
  }

  // EXPLAIN (compile-only) surfaces the same warning in the plan text.
  QueryOptions explain = options;
  explain.WithExplainOnly();
  auto explained = session.Run(join_sql, explain);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->explain_text.find(
                "WARNING: join enumeration degraded"),
            std::string::npos)
      << explained->explain_text;

  // The budget counter moved.
  EXPECT_GE(
      obs::MetricsRegistry::Global().counter("optimizer.budget_exhausted"), 2);
}

}  // namespace
}  // namespace pdw
