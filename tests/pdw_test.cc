#include <gtest/gtest.h>

#include <functional>

#include "common/string_util.h"
#include "optimizer/join_stress.h"
#include "pdw/baseline.h"
#include "pdw/compiler.h"
#include "pdw/interesting_props.h"
#include "pdw/dsql.h"
#include "sql/parser.h"
#include "test_util.h"
#include "tpch/tpch.h"
#include "xmlio/memo_xml.h"

namespace pdw {
namespace {

// ---------------------------------------------------------------------------
// DMS cost model (Fig. 5, §3.3).
// ---------------------------------------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  DmsCostParameters params_;
};

TEST_F(CostModelTest, CostIsMaxOfComponents) {
  DmsCostModel model(params_, 8);
  auto b = model.CostBreakdown(DmsOpKind::kShuffle, 10000, 100);
  EXPECT_DOUBLE_EQ(b.c_source, std::max(b.c_reader, b.c_network));
  EXPECT_DOUBLE_EQ(b.c_target, std::max(b.c_writer, b.c_bulkcopy));
  EXPECT_DOUBLE_EQ(b.total, std::max(b.c_source, b.c_target));
}

TEST_F(CostModelTest, ShuffleScalesDownWithNodes) {
  DmsCostModel small(params_, 2);
  DmsCostModel large(params_, 16);
  double rows = 1e6, width = 64;
  EXPECT_GT(small.Cost(DmsOpKind::kShuffle, rows, width),
            large.Cost(DmsOpKind::kShuffle, rows, width));
  // 8x more nodes => 8x cheaper shuffle (all components distributed).
  EXPECT_NEAR(small.Cost(DmsOpKind::kShuffle, rows, width) /
                  large.Cost(DmsOpKind::kShuffle, rows, width),
              8.0, 1e-9);
}

TEST_F(CostModelTest, BroadcastCostIndependentOfNodesOnTarget) {
  // The broadcast target ingests the full stream regardless of N.
  DmsCostModel m2(params_, 2);
  DmsCostModel m16(params_, 16);
  double rows = 1e6, width = 64;
  auto b2 = m2.CostBreakdown(DmsOpKind::kBroadcastMove, rows, width);
  auto b16 = m16.CostBreakdown(DmsOpKind::kBroadcastMove, rows, width);
  EXPECT_DOUBLE_EQ(b2.c_target, b16.c_target);
}

TEST_F(CostModelTest, BroadcastBeatsShuffleOnlyForSmallStreams) {
  DmsCostModel model(params_, 8);
  // Broadcasting a big stream costs ~N times a shuffle.
  double big = 1e6;
  EXPECT_GT(model.Cost(DmsOpKind::kBroadcastMove, big, 64),
            model.Cost(DmsOpKind::kShuffle, big, 64));
  // Both scale linearly so the ratio is constant; the plan-level tradeoff
  // (broadcast small side vs shuffle both) is exercised in optimizer tests.
  EXPECT_NEAR(model.Cost(DmsOpKind::kBroadcastMove, big, 64) /
                  model.Cost(DmsOpKind::kShuffle, big, 64),
              8.0,
              8.0 * 0.5);
}

TEST_F(CostModelTest, TrimMoveHasNoNetworkCost) {
  DmsCostModel model(params_, 8);
  auto b = model.CostBreakdown(DmsOpKind::kTrimMove, 1e5, 32);
  EXPECT_EQ(b.bytes_network, 0);
  EXPECT_GT(b.bytes_reader, 0);
}

TEST_F(CostModelTest, MonotoneInRowsAndWidth) {
  DmsCostModel model(params_, 4);
  for (DmsOpKind kind :
       {DmsOpKind::kShuffle, DmsOpKind::kPartitionMove,
        DmsOpKind::kBroadcastMove, DmsOpKind::kTrimMove,
        DmsOpKind::kControlNodeMove, DmsOpKind::kReplicatedBroadcast,
        DmsOpKind::kRemoteCopyToSingle}) {
    EXPECT_LE(model.Cost(kind, 1000, 32), model.Cost(kind, 2000, 32));
    EXPECT_LE(model.Cost(kind, 1000, 32), model.Cost(kind, 1000, 64));
    EXPECT_EQ(model.Cost(kind, 0, 32), 0);
  }
}

TEST_F(CostModelTest, HashingReaderCostsMore) {
  DmsCostModel model(params_, 8);
  auto shuffle = model.CostBreakdown(DmsOpKind::kShuffle, 1e5, 32);
  auto partition = model.CostBreakdown(DmsOpKind::kPartitionMove, 1e5, 32);
  // Same per-node reader bytes, but the shuffle reader hashes.
  EXPECT_DOUBLE_EQ(shuffle.bytes_reader, partition.bytes_reader);
  EXPECT_GT(shuffle.c_reader, partition.c_reader);
}

// ---------------------------------------------------------------------------
// Full PDW compilation (options, invariants, claims).
// ---------------------------------------------------------------------------

class PdwOptimizerTest : public ::testing::Test {
 protected:
  PdwOptimizerTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  PdwCompilation Compile(const std::string& sql, PdwCompilerOptions opts = {}) {
    auto r = CompilePdwQuery(catalog_, sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// The §2.5 parallelized-serial plan of a compiled query.
  SerialBaseline Baseline(const PdwCompilation& c) {
    auto r = BuildSerialBaseline(c.serial.memo.get(), catalog_.topology());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  static int CountKind(const PlanNode& n, PhysOpKind k) {
    int c = n.kind == k ? 1 : 0;
    for (const auto& ch : n.children) c += CountKind(*ch, k);
    return c;
  }

  static int CountMoveKind(const PlanNode& n, DmsOpKind k) {
    int c = (n.kind == PhysOpKind::kMove && n.move_kind == k) ? 1 : 0;
    for (const auto& ch : n.children) c += CountMoveKind(*ch, k);
    return c;
  }

  static void ScanTables(const PlanNode& n, std::vector<std::string>* out) {
    for (const auto& c : n.children) ScanTables(*c, out);
    if (n.kind == PhysOpKind::kTableScan) out->push_back(n.table_name);
  }

  Catalog catalog_;
};

TEST_F(PdwOptimizerTest, CollocatedJoinNeedsNoMove) {
  // orders and lineitem are both hash-distributed on orderkey.
  PdwCompilation c = Compile(
      "SELECT o_totalprice, l_quantity FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 0) << PlanTreeToString(*c.parallel.plan);
  EXPECT_EQ(c.parallel.cost, 0);
}

TEST_F(PdwOptimizerTest, ReplicatedJoinNeedsNoMove) {
  PdwCompilation c = Compile(
      "SELECT s_name, n_name FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 0);
}

TEST_F(PdwOptimizerTest, IncompatibleJoinGetsExactlyOneMove) {
  PdwCompilation c = Compile(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 1) << PlanTreeToString(*c.parallel.plan);
}

TEST_F(PdwOptimizerTest, SerialVsParallelJoinOrderFlips) {
  // The §2.5 example. Serial joins smallest tables first (customer-orders);
  // PDW exploits the orders-lineitem collocation instead.
  PdwCompilation c = Compile(
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey");
  // PDW plan: the orders-lineitem join happens without a move between
  // them; the only move touches customer (or the joined result).
  EXPECT_LE(CountMoves(*c.parallel.plan), 1);
  SerialBaseline baseline = Baseline(c);
  EXPECT_LT(c.parallel.cost, baseline.cost)
      << "PDW: " << PlanTreeToString(*c.parallel.plan)
      << "baseline: " << PlanTreeToString(*baseline.plan);
}

TEST_F(PdwOptimizerTest, PrunedOptionCountRespectsFig4Bound) {
  PdwCompilation c = Compile(
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey");
  // Rebuild the PDW optimizer to inspect per-group option tables.
  PdwOptimizer opt(c.serial.memo.get(), catalog_.topology());
  ASSERT_TRUE(opt.Optimize().ok());
  for (int g = 0; g < c.serial.memo->num_groups(); ++g) {
    size_t interesting = 0;
    auto it = opt.interesting().interesting.find(g);
    if (it != opt.interesting().interesting.end()) {
      interesting = it->second.size();
    }
    // Fig. 4 step 06.ii: best overall + best per interesting property.
    // Replicated and Control count as always-interesting targets here.
    EXPECT_LE(opt.group_options(g).size(), interesting + 3)
        << "group " << g;
  }
}

TEST_F(PdwOptimizerTest, NoPruningKeepsMoreOptions) {
  const char* sql =
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey";
  PdwCompilerOptions pruned;
  PdwCompilerOptions unpruned;
  unpruned.pdw.prune = false;
  PdwCompilation a = Compile(sql, pruned);
  PdwCompilation b = Compile(sql, unpruned);
  EXPECT_GT(b.parallel.options_kept, a.parallel.options_kept);
  // Same winning cost: pruning is lossless for the best plan.
  EXPECT_NEAR(a.parallel.cost, b.parallel.cost, 1e-12);
}

TEST_F(PdwOptimizerTest, TwoPhaseAggregationChosen) {
  // Aggregation on a non-distribution column: expect local/global split.
  PdwCompilation c = Compile(
      "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey");
  int local = 0, global = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PhysOpKind::kHashAggregate) {
      if (n.agg_phase == AggPhase::kLocal) ++local;
      if (n.agg_phase == AggPhase::kGlobal) ++global;
    }
    for (const auto& ch : n.children) walk(*ch);
  };
  walk(*c.parallel.plan);
  EXPECT_EQ(local, 1) << PlanTreeToString(*c.parallel.plan);
  EXPECT_EQ(global, 1);
}

TEST_F(PdwOptimizerTest, CollocatedAggregationSinglePhase) {
  // Group by the distribution column: single-phase, no move.
  PdwCompilation c = Compile(
      "SELECT o_orderkey, SUM(o_totalprice) FROM orders GROUP BY o_orderkey");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 0);
}

TEST_F(PdwOptimizerTest, GroupByJoinColumnReusesShuffledDistribution) {
  // Shuffling orders on o_custkey for the join makes the group-by on
  // c_custkey collocated via the equivalence class.
  PdwCompilation c = Compile(
      "SELECT c_custkey, COUNT(*) FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_custkey");
  EXPECT_LE(CountMoves(*c.parallel.plan), 1) << PlanTreeToString(*c.parallel.plan);
}

TEST_F(PdwOptimizerTest, DistinctAggregateStillPlans) {
  PdwCompilation c = Compile(
      "SELECT o_custkey, COUNT(DISTINCT o_totalprice) FROM orders "
      "GROUP BY o_custkey");
  EXPECT_GE(CountMoves(*c.parallel.plan), 1);  // shuffle then full agg
}

TEST_F(PdwOptimizerTest, XmlRoundTripPreservesSearchSpace) {
  PdwCompilation c = Compile(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 1000");
  std::string xml = MemoToXml(*c.serial.memo, *c.serial.stats);
  EXPECT_FALSE(xml.empty());
  auto imported = MemoFromXml(xml, catalog_);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  const Memo& memo = *imported->memo;
  EXPECT_EQ(memo.num_groups(), c.serial.memo->num_groups());
  EXPECT_EQ(memo.num_exprs(), c.serial.memo->num_exprs());
  EXPECT_EQ(memo.root(), c.serial.memo->root());
  for (int g = 0; g < c.serial.memo->num_groups(); ++g) {
    EXPECT_NEAR(memo.group(g).cardinality,
                c.serial.memo->group(g).cardinality, 1e-6);
    EXPECT_EQ(memo.group(g).exprs.size(),
              c.serial.memo->group(g).exprs.size());
  }
}

// The paper's Fig. 2 boundary: the serial memo crosses to the PDW engine
// as XML (components 3-4a). The compile pipeline hands the memo over
// directly, so the codec must carry everything the PDW optimizer reads:
// optimizing the imported memo must give the same plan, DSQL and cost.
// Re-exported XML text is not compared, because the importer fills the
// NDVs of derived columns (aggregate outputs) that the first export
// writes as -1; the plans do not depend on them.
void ExpectPlanSurvivesXmlRoundTrip(const Catalog& catalog,
                                    const std::string& sql) {
  auto c = CompilePdwQuery(catalog, sql);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto imported =
      MemoFromXml(MemoToXml(*c->serial.memo, *c->serial.stats), catalog);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  PdwOptimizer optimizer(imported->memo.get(), catalog.topology());
  auto across = optimizer.Optimize();
  ASSERT_TRUE(across.ok()) << across.status().ToString();

  EXPECT_EQ(PlanTreeToString(*across->plan),
            PlanTreeToString(*c->parallel.plan));
  auto direct_dsql = GenerateDsql(*c->parallel.plan, c->output_names);
  auto across_dsql = GenerateDsql(*across->plan, c->output_names);
  ASSERT_TRUE(direct_dsql.ok() && across_dsql.ok());
  EXPECT_EQ(across_dsql->ToString(), direct_dsql->ToString());
  // %a renders every bit of the double.
  EXPECT_EQ(StringFormat("%a", across->cost),
            StringFormat("%a", c->parallel.cost));
  EXPECT_EQ(across->options_considered, c->parallel.options_considered);
  EXPECT_EQ(across->options_kept, c->parallel.options_kept);
  EXPECT_EQ(across->preagg_kept, c->parallel.preagg_kept);
}

TEST(XmlBoundaryTest, PlansSurviveMemoRoundTrip) {
  // The full TPC-H schema (the mini test catalog lacks several columns).
  Appliance appliance(Topology{8});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  for (const auto& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    ExpectPlanSurvivesXmlRoundTrip(appliance.shell(), q.sql);
  }
  // On the mini test catalog these plans push a partial aggregate below
  // the join, a choice that rests on the NDVs the importer restores.
  Catalog mini = testing::MakeTpchShellCatalog();
  for (const char* sql :
       {"SELECT c_name, SUM(o_totalprice) FROM customer, orders "
        "WHERE c_custkey = o_custkey GROUP BY c_name",
        "SELECT c_name, COUNT(*) FROM customer, orders "
        "WHERE c_custkey = o_custkey GROUP BY c_name"}) {
    SCOPED_TRACE(sql);
    auto c = CompilePdwQuery(mini, sql);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(c->parallel.preagg_chosen);
    ExpectPlanSurvivesXmlRoundTrip(mini, sql);
  }
  // Join graphs past max_dp_relations take the degraded (beam) search.
  for (JoinStressShape shape : {JoinStressShape::kStar, JoinStressShape::kChain,
                                JoinStressShape::kClique}) {
    for (int relations : {4, 7, 10}) {
      for (uint32_t seed : {1u, 2u}) {
        JoinStressQuery q = MakeJoinStressQuery({shape, relations, seed});
        SCOPED_TRACE(StringFormat("%s-%d seed %u", JoinStressShapeName(shape),
                                  relations, seed));
        ExpectPlanSurvivesXmlRoundTrip(q.catalog, q.sql);
      }
    }
  }
}

TEST_F(PdwOptimizerTest, Q20PlanShape) {
  const char* q20 =
      "SELECT s_name, s_address FROM supplier, nation "
      "WHERE s_suppkey IN ("
      "  SELECT ps_suppkey FROM partsupp WHERE ps_partkey IN ("
      "    SELECT p_partkey FROM part WHERE p_name LIKE 'forest%') "
      "  AND ps_availqty > ("
      "    SELECT 0.5 * SUM(l_quantity) FROM lineitem "
      "    WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
      "    AND l_shipdate >= DATE '1994-01-01' "
      "    AND l_shipdate < DATEADD(year, 1, '1994-01-01'))) "
      "AND s_nationkey = n_nationkey AND n_name = 'CANADA' "
      "ORDER BY s_name";
  PdwCompilation c = Compile(q20);
  auto dsql = GenerateDsql(*c.parallel.plan, c.output_names);
  ASSERT_TRUE(dsql.ok()) << dsql.status().ToString();
  // The paper's plan has 4 DSQL steps (3 moves + return); ours must land
  // in the same ballpark and end with a merge-sorted Return.
  EXPECT_GE(dsql->steps.size(), 3u);
  EXPECT_LE(dsql->steps.size(), 5u);
  const DsqlStep& last = dsql->steps.back();
  EXPECT_EQ(last.kind, DsqlStepKind::kReturn);
  EXPECT_FALSE(last.merge_sort.empty());
  // Local/global aggregation appears (the LocalGB/GlobalGB of Fig. 7).
  EXPECT_GE(CountKind(*c.parallel.plan, PhysOpKind::kHashAggregate), 2);
}

TEST_F(PdwOptimizerTest, BaselineNeverBeatsOptimizer) {
  for (const char* sql : {
           "SELECT c_name, o_totalprice FROM customer, orders "
           "WHERE c_custkey = o_custkey",
           "SELECT c_name, l_quantity FROM customer, orders, lineitem "
           "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
           "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY "
           "o_custkey",
           "SELECT n_name, COUNT(*) FROM customer, nation "
           "WHERE c_nationkey = n_nationkey GROUP BY n_name",
       }) {
    PdwCompilation c = Compile(sql);
    EXPECT_LE(c.parallel.cost, Baseline(c).cost + 1e-12) << sql;
  }
}

TEST_F(PdwOptimizerTest, TopNUsesLocalLimit) {
  PdwCompilation c = Compile(
      "SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5");
  // Expect two Limit nodes: per-node top-5 and the global top-5.
  EXPECT_EQ(CountKind(*c.parallel.plan, PhysOpKind::kLimit), 2)
      << PlanTreeToString(*c.parallel.plan);
}

TEST_F(PdwOptimizerTest, RelationalCostAblationChangesObjective) {
  PdwCompilerOptions dms_only;
  PdwCompilerOptions extended;
  extended.pdw.relational_costs = true;
  const char* sql =
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey";
  PdwCompilation a = Compile(sql, dms_only);
  PdwCompilation b = Compile(sql, extended);
  // The extended model includes relational work, so its total is larger.
  EXPECT_GT(b.parallel.cost, a.parallel.cost);
}

// ---------------------------------------------------------------------------
// Interesting-property derivation (Fig. 4 step 04).
// ---------------------------------------------------------------------------

class InterestingPropsTest : public ::testing::Test {
 protected:
  InterestingPropsTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  InterestingProperties Derive(const std::string& sql) {
    auto comp = CompileQuery(catalog_, sql);
    EXPECT_TRUE(comp.ok()) << comp.status().ToString();
    memo_ = comp->memo;
    return DeriveInterestingProperties(*memo_);
  }

  /// True if some group whose output contains a column named `col` has an
  /// interesting class containing that column.
  bool ColumnIsInteresting(const InterestingProperties& props,
                           const std::string& col) {
    for (int g = 0; g < memo_->num_groups(); ++g) {
      auto it = props.interesting.find(g);
      if (it == props.interesting.end()) continue;
      for (const auto& b : memo_->group(g).output) {
        if (!EqualsIgnoreCase(b.name, col)) continue;
        if (it->second.count(props.equivalence.Find(b.id)) > 0) return true;
      }
    }
    return false;
  }

  Catalog catalog_;
  std::shared_ptr<Memo> memo_;
};

TEST_F(InterestingPropsTest, JoinColumnsAreInteresting) {
  InterestingProperties props = Derive(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  EXPECT_TRUE(ColumnIsInteresting(props, "c_custkey"));
  EXPECT_TRUE(ColumnIsInteresting(props, "o_custkey"));
  // Non-join columns are not.
  EXPECT_FALSE(ColumnIsInteresting(props, "o_totalprice"));
  // The join predicate creates one equivalence class.
  bool equivalent = false;
  for (int g = 0; g < memo_->num_groups(); ++g) {
    ColumnId ck = kInvalidColumnId, ok = kInvalidColumnId;
    for (const auto& b : memo_->group(g).output) {
      if (EqualsIgnoreCase(b.name, "c_custkey")) ck = b.id;
      if (EqualsIgnoreCase(b.name, "o_custkey")) ok = b.id;
    }
    if (ck != kInvalidColumnId && ok != kInvalidColumnId &&
        props.equivalence.AreEquivalent(ck, ok)) {
      equivalent = true;
    }
  }
  EXPECT_TRUE(equivalent);
}

TEST_F(InterestingPropsTest, GroupByColumnsAreInteresting) {
  InterestingProperties props = Derive(
      "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
  EXPECT_TRUE(ColumnIsInteresting(props, "o_custkey"));
}

TEST_F(InterestingPropsTest, SingleTableScanHasNoInterestingColumns) {
  InterestingProperties props =
      Derive("SELECT c_name FROM customer WHERE c_acctbal > 0");
  EXPECT_FALSE(ColumnIsInteresting(props, "c_name"));
  EXPECT_FALSE(ColumnIsInteresting(props, "c_acctbal"));
}

TEST_F(InterestingPropsTest, PropagatesThroughThreeWayJoin) {
  InterestingProperties props = Derive(
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey");
  EXPECT_TRUE(ColumnIsInteresting(props, "o_orderkey"));
  EXPECT_TRUE(ColumnIsInteresting(props, "l_orderkey"));
  EXPECT_TRUE(ColumnIsInteresting(props, "c_custkey"));
}

// ---------------------------------------------------------------------------
// SQL generation and DSQL splitting.
// ---------------------------------------------------------------------------

class DsqlTest : public ::testing::Test {
 protected:
  DsqlTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  DsqlPlan Generate(const std::string& sql) {
    auto c = CompilePdwQuery(catalog_, sql);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    auto d = GenerateDsql(*c->parallel.plan, c->output_names);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return std::move(d).ValueOrDie();
  }

  Catalog catalog_;
};

TEST_F(DsqlTest, LastStepIsAlwaysReturn) {
  DsqlPlan p = Generate("SELECT c_name FROM customer WHERE c_acctbal > 0");
  ASSERT_FALSE(p.steps.empty());
  EXPECT_EQ(p.steps.back().kind, DsqlStepKind::kReturn);
  for (size_t i = 0; i + 1 < p.steps.size(); ++i) {
    EXPECT_EQ(p.steps[i].kind, DsqlStepKind::kDms);
  }
}

TEST_F(DsqlTest, DmsStepCountMatchesPlanMoves) {
  auto c = CompilePdwQuery(
      catalog_,
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  ASSERT_TRUE(c.ok());
  auto d = GenerateDsql(*c->parallel.plan, c->output_names);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(static_cast<int>(d->steps.size()) - 1,
            CountMoves(*c->parallel.plan));
}

TEST_F(DsqlTest, GeneratedSqlReparses) {
  DsqlPlan p = Generate(
      "SELECT c_custkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 100 "
      "GROUP BY c_custkey ORDER BY cnt DESC LIMIT 7");
  for (const DsqlStep& step : p.steps) {
    auto parsed = sql::ParseSelect(step.sql);
    EXPECT_TRUE(parsed.ok()) << step.sql << "\n" << parsed.status().ToString();
  }
}

TEST_F(DsqlTest, TempTablesAreChainedThroughSteps) {
  DsqlPlan p = Generate(
      "SELECT c_custkey, COUNT(*) FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_name, c_custkey");
  bool later_step_reads_temp = false;
  for (size_t i = 1; i < p.steps.size(); ++i) {
    if (p.steps[i].sql.find("[tempdb].[dbo].[TEMP_ID_") != std::string::npos) {
      later_step_reads_temp = true;
    }
  }
  if (p.steps.size() > 1) {
    EXPECT_TRUE(later_step_reads_temp);
  }
}

TEST_F(DsqlTest, KeywordAliasesAreMangled) {
  DsqlPlan p = Generate("SELECT SUM(o_totalprice) FROM orders");
  for (const DsqlStep& step : p.steps) {
    EXPECT_EQ(step.sql.find("AS sum,"), std::string::npos) << step.sql;
    auto parsed = sql::ParseSelect(step.sql);
    EXPECT_TRUE(parsed.ok()) << step.sql;
  }
}

}  // namespace
}  // namespace pdw
