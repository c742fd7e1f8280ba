#include <gtest/gtest.h>

#include "pdw/compiler.h"
#include "appliance/appliance.h"
#include "pdw/top_down.h"
#include "test_util.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

/// The paper remarks (§3.2) that a top-down enumeration is equally
/// applicable: both strategies search the same space with the same cost
/// model, so they must agree on the optimal plan cost for every query.
class TopDownTest : public ::testing::Test {
 protected:
  TopDownTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  void ExpectAgreement(const std::string& sql) {
    auto comp = CompilePdwQuery(catalog_, sql);
    ASSERT_TRUE(comp.ok()) << sql << "\n" << comp.status().ToString();
    double bottom_up = comp->parallel.cost;

    TopDownPdwOptimizer top_down(comp->serial.memo.get(), catalog_.topology());
    auto td = top_down.OptimalCost();
    ASSERT_TRUE(td.ok()) << sql << "\n" << td.status().ToString();
    EXPECT_NEAR(*td, bottom_up, 1e-12 + bottom_up * 1e-9) << sql;
    EXPECT_GT(top_down.stats().states_computed, 0u);
  }

  Catalog catalog_;
};

TEST_F(TopDownTest, SingleTable) {
  ExpectAgreement("SELECT c_name FROM customer WHERE c_acctbal > 100");
}

TEST_F(TopDownTest, IncompatibleJoin) {
  ExpectAgreement(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 1000");
}

TEST_F(TopDownTest, CollocatedJoin) {
  ExpectAgreement(
      "SELECT o_totalprice, l_quantity FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey");
}

TEST_F(TopDownTest, ThreeWayJoin) {
  ExpectAgreement(
      "SELECT c_name, l_quantity FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey");
}

TEST_F(TopDownTest, TwoPhaseAggregate) {
  ExpectAgreement(
      "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey");
}

TEST_F(TopDownTest, ScalarAggregate) {
  ExpectAgreement("SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10");
}

TEST_F(TopDownTest, TopN) {
  ExpectAgreement(
      "SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5");
}

TEST_F(TopDownTest, SemiJoin) {
  ExpectAgreement(
      "SELECT s_name FROM supplier WHERE s_suppkey IN "
      "(SELECT ps_suppkey FROM partsupp)");
}

TEST_F(TopDownTest, UnionAll) {
  ExpectAgreement(
      "SELECT o_orderkey FROM orders UNION ALL "
      "SELECT l_orderkey FROM lineitem");
}

TEST(TopDownTpchTest, WholeTpchSuite) {
  // The full TPC-H schema (the mini test catalog lacks several columns).
  Appliance appliance(Topology{8});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  for (const auto& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    auto comp = CompilePdwQuery(appliance.shell(), q.sql);
    ASSERT_TRUE(comp.ok()) << comp.status().ToString();
    TopDownPdwOptimizer top_down(comp->serial.memo.get(),
                                 appliance.shell().topology());
    auto td = top_down.OptimalCost();
    ASSERT_TRUE(td.ok()) << td.status().ToString();
    EXPECT_NEAR(*td, comp->parallel.cost,
                1e-12 + comp->parallel.cost * 1e-9);
  }
}

}  // namespace
}  // namespace pdw
