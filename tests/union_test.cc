#include <gtest/gtest.h>

#include "appliance/appliance.h"
#include "engine/local_engine.h"
#include "pdw/compiler.h"
#include "test_util.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

// --- parsing / binding / local execution ---

class UnionEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE a (x INT, s VARCHAR(10))").ok());
    ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE b (y INT, t VARCHAR(10))").ok());
    ASSERT_TRUE(engine_
                    .ExecuteSql("INSERT INTO a VALUES (1, 'one'), (2, 'two'), "
                                "(2, 'two')")
                    .ok());
    ASSERT_TRUE(engine_
                    .ExecuteSql("INSERT INTO b VALUES (2, 'two'), (3, 'three')")
                    .ok());
  }

  RowVector Run(const std::string& sql) {
    auto r = engine_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r->rows : RowVector{};
  }

  LocalEngine engine_;
};

TEST_F(UnionEngineTest, UnionAllKeepsDuplicates) {
  EXPECT_EQ(Run("SELECT x FROM a UNION ALL SELECT y FROM b").size(), 5u);
}

TEST_F(UnionEngineTest, PlainUnionDeduplicates) {
  // Distinct over {1,2,2} u {2,3} = {1,2,3}.
  EXPECT_EQ(Run("SELECT x FROM a UNION SELECT y FROM b").size(), 3u);
}

TEST_F(UnionEngineTest, MultiColumnAndChained) {
  RowVector rows = Run(
      "SELECT x, s FROM a UNION ALL SELECT y, t FROM b "
      "UNION ALL SELECT x, s FROM a WHERE x = 1");
  EXPECT_EQ(rows.size(), 6u);
  ASSERT_EQ(rows[0].size(), 2u);
}

TEST_F(UnionEngineTest, OrderByAndLimitApplyToWholeUnion) {
  RowVector rows = Run(
      "SELECT x FROM a UNION ALL SELECT y FROM b ORDER BY x DESC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_value(), 3);
  EXPECT_EQ(rows[1][0].int_value(), 2);
}

TEST_F(UnionEngineTest, MixedNumericTypesWiden) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE d (v DOUBLE)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO d VALUES (1.5)").ok());
  EXPECT_EQ(Run("SELECT x FROM a UNION ALL SELECT v FROM d").size(), 4u);
}

TEST_F(UnionEngineTest, ArityMismatchRejected) {
  EXPECT_FALSE(
      engine_.ExecuteSql("SELECT x, s FROM a UNION ALL SELECT y FROM b").ok());
}

TEST_F(UnionEngineTest, TypeMismatchRejected) {
  EXPECT_FALSE(
      engine_.ExecuteSql("SELECT x FROM a UNION ALL SELECT t FROM b").ok());
}

TEST_F(UnionEngineTest, OrderByBeforeUnionRejected) {
  EXPECT_FALSE(engine_
                   .ExecuteSql("SELECT x FROM a ORDER BY x UNION ALL "
                               "SELECT y FROM b")
                   .ok());
}

// --- PDW optimization of unions ---

class UnionPdwTest : public ::testing::Test {
 protected:
  UnionPdwTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  PdwCompilation Compile(const std::string& sql) {
    auto r = CompilePdwQuery(catalog_, sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  Catalog catalog_;
};

TEST_F(UnionPdwTest, CollocatedUnionNeedsNoMove) {
  // Both branches are distributed streams; UNION ALL of distributed
  // streams is valid with no movement (§3.1's collocated unions).
  PdwCompilation c = Compile(
      "SELECT o_orderkey FROM orders WHERE o_totalprice > 400000 "
      "UNION ALL SELECT l_orderkey FROM lineitem WHERE l_quantity > 49");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 0) << PlanTreeToString(*c.parallel.plan);
}

TEST_F(UnionPdwTest, ReplicatedUnionStaysReplicated) {
  PdwCompilation c = Compile(
      "SELECT n_name FROM nation UNION ALL SELECT r_name FROM region");
  EXPECT_EQ(CountMoves(*c.parallel.plan), 0);
  EXPECT_TRUE(c.parallel.plan->distribution.is_replicated());
}

TEST_F(UnionPdwTest, MixedUnionRequiresMove) {
  // nation is replicated, orders distributed: a naive union would
  // duplicate nation rows N times; a move must fix one side.
  PdwCompilation c = Compile(
      "SELECT n_nationkey FROM nation "
      "UNION ALL SELECT o_orderkey FROM orders");
  EXPECT_GE(CountMoves(*c.parallel.plan), 1) << PlanTreeToString(*c.parallel.plan);
}

TEST_F(UnionPdwTest, UnionDistinctAggregatesOverUnion) {
  PdwCompilation c = Compile(
      "SELECT o_custkey FROM orders UNION SELECT c_custkey FROM customer");
  bool has_agg = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PhysOpKind::kHashAggregate) has_agg = true;
    for (const auto& ch : n.children) walk(*ch);
  };
  walk(*c.parallel.plan);
  EXPECT_TRUE(has_agg);
}

// --- distributed execution correctness ---

TEST(UnionApplianceTest, DistributedUnionMatchesReference) {
  Appliance appliance(Topology{4});
  Session session = appliance.Connect();
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.03;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  for (const char* sql : {
           // Distributed UNION ALL.
           "SELECT o_orderkey AS k FROM orders WHERE o_totalprice > 300000 "
           "UNION ALL SELECT l_orderkey AS k FROM lineitem WHERE "
           "l_quantity > 49",
           // Mixed replicated/distributed operands.
           "SELECT n_nationkey AS k FROM nation "
           "UNION ALL SELECT o_custkey AS k FROM orders WHERE "
           "o_totalprice > 400000",
           // Plain UNION (dedup) + ORDER BY over the whole union.
           "SELECT c_nationkey AS k FROM customer UNION "
           "SELECT s_nationkey AS k FROM supplier ORDER BY k",
           // Union feeding an aggregation via a derived table.
           "SELECT u.k, COUNT(*) AS c FROM (SELECT o_custkey AS k FROM "
           "orders UNION ALL SELECT c_custkey AS k FROM customer) AS u "
           "GROUP BY u.k",
           // Two identical join arms: the plan holds two DMS steps with
           // the same SQL, each materializing its own temp table.
           "SELECT c_nationkey FROM customer, orders WHERE c_custkey = "
           "o_custkey AND c_nationkey > 5 "
           "UNION ALL "
           "SELECT c_nationkey FROM customer, orders WHERE c_custkey = "
           "o_custkey AND c_nationkey > 5",
       }) {
    SCOPED_TRACE(sql);
    auto dist = session.Run(sql);
    ASSERT_TRUE(dist.ok()) << sql << "\n" << dist.status().ToString();
    auto ref = appliance.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows))
        << sql << "\n" << dist->plan_text;
  }
}

}  // namespace
}  // namespace pdw
