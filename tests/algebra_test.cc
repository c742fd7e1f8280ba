#include <gtest/gtest.h>

#include "algebra/binder.h"
#include "algebra/equivalence.h"
#include "algebra/normalizer.h"
#include "algebra/scalar_eval.h"
#include "sql/parser.h"
#include "test_util.h"

namespace pdw {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : catalog_(testing::MakeTpchShellCatalog()) {}

  LogicalOpPtr Bind(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(catalog_);
    auto bound = binder.BindSelect(**stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound.ok() ? bound->root : nullptr;
  }

  LogicalOpPtr BindNormalized(const std::string& sql) {
    LogicalOpPtr root = Bind(sql);
    if (!root) return nullptr;
    auto norm = Normalize(root);
    EXPECT_TRUE(norm.ok()) << norm.status().ToString();
    return norm.ok() ? *norm : nullptr;
  }

  static int CountKind(const LogicalOp& op, LogicalOpKind kind) {
    int n = op.kind() == kind ? 1 : 0;
    for (const auto& c : op.children()) n += CountKind(*c, kind);
    return n;
  }

  static const LogicalOp* FindKind(const LogicalOp& op, LogicalOpKind kind) {
    if (op.kind() == kind) return &op;
    for (const auto& c : op.children()) {
      if (const LogicalOp* f = FindKind(*c, kind)) return f;
    }
    return nullptr;
  }

  Catalog catalog_;
};

TEST_F(AlgebraTest, BindSimpleSelect) {
  LogicalOpPtr root = Bind("SELECT c_custkey, c_name FROM customer");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind(), LogicalOpKind::kProject);
  auto out = root->OutputBindings();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "c_custkey");
  EXPECT_EQ(out[0].type, TypeId::kInt);
}

TEST_F(AlgebraTest, BindRejectsUnknownNames) {
  auto stmt = sql::ParseSelect("SELECT nope FROM customer");
  Binder binder(catalog_);
  EXPECT_FALSE(binder.BindSelect(**stmt).ok());
  auto stmt2 = sql::ParseSelect("SELECT c_custkey FROM no_such_table");
  EXPECT_FALSE(binder.BindSelect(**stmt2).ok());
}

TEST_F(AlgebraTest, BindRejectsAmbiguousColumn) {
  auto stmt = sql::ParseSelect(
      "SELECT c_custkey FROM customer c1, customer c2");
  Binder binder(catalog_);
  EXPECT_FALSE(binder.BindSelect(**stmt).ok());
}

TEST_F(AlgebraTest, BindRejectsUngroupedColumn) {
  auto stmt = sql::ParseSelect(
      "SELECT c_name, COUNT(*) FROM customer GROUP BY c_custkey");
  Binder binder(catalog_);
  EXPECT_FALSE(binder.BindSelect(**stmt).ok());
}

TEST_F(AlgebraTest, StarExpansion) {
  LogicalOpPtr root = Bind("SELECT * FROM nation");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->OutputBindings().size(), 3u);
}

TEST_F(AlgebraTest, AggregateBinding) {
  LogicalOpPtr root = Bind(
      "SELECT o_custkey, SUM(o_totalprice), COUNT(*) FROM orders "
      "GROUP BY o_custkey");
  ASSERT_NE(root, nullptr);
  const LogicalOp* agg = FindKind(*root, LogicalOpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  const auto& a = static_cast<const LogicalAggregate&>(*agg);
  EXPECT_EQ(a.group_by().size(), 1u);
  EXPECT_EQ(a.aggregates().size(), 2u);
}

TEST_F(AlgebraTest, AvgSplitsIntoSumAndCount) {
  LogicalOpPtr root = Bind("SELECT AVG(o_totalprice) FROM orders");
  ASSERT_NE(root, nullptr);
  const LogicalOp* agg = FindKind(*root, LogicalOpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  const auto& a = static_cast<const LogicalAggregate&>(*agg);
  // AVG is rewritten to SUM and COUNT at binding, making every aggregate
  // two-phase splittable for PDW.
  ASSERT_EQ(a.aggregates().size(), 2u);
  EXPECT_EQ(a.aggregates()[0].func, AggFunc::kSum);
  EXPECT_EQ(a.aggregates()[1].func, AggFunc::kCount);
}

TEST_F(AlgebraTest, InSubqueryBecomesSemiJoin) {
  LogicalOpPtr root = Bind(
      "SELECT s_name FROM supplier WHERE s_suppkey IN "
      "(SELECT ps_suppkey FROM partsupp)");
  ASSERT_NE(root, nullptr);
  const LogicalOp* join = FindKind(*root, LogicalOpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<const LogicalJoin&>(*join).join_type(),
            LogicalJoinType::kSemi);
}

TEST_F(AlgebraTest, NotInBecomesAntiJoin) {
  LogicalOpPtr root = Bind(
      "SELECT s_name FROM supplier WHERE s_suppkey NOT IN "
      "(SELECT ps_suppkey FROM partsupp)");
  const LogicalOp* join = FindKind(*root, LogicalOpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<const LogicalJoin&>(*join).join_type(),
            LogicalJoinType::kAnti);
}

TEST_F(AlgebraTest, CorrelatedScalarAggregateDecorrelates) {
  LogicalOpPtr root = Bind(
      "SELECT ps_suppkey FROM partsupp WHERE ps_availqty > "
      "(SELECT 0.5 * SUM(l_quantity) FROM lineitem "
      " WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey)");
  ASSERT_NE(root, nullptr);
  // The correlated scalar aggregate becomes GROUP BY l_partkey, l_suppkey
  // joined back on the correlation columns.
  const LogicalOp* agg = FindKind(*root, LogicalOpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(static_cast<const LogicalAggregate&>(*agg).group_by().size(), 2u);
  const LogicalOp* join = FindKind(*root, LogicalOpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<const LogicalJoin&>(*join).join_type(),
            LogicalJoinType::kInner);
}

TEST_F(AlgebraTest, Q20Binds) {
  LogicalOpPtr root = Bind(
      "SELECT s_name, s_address FROM supplier, nation "
      "WHERE s_suppkey IN ("
      "  SELECT ps_suppkey FROM partsupp WHERE ps_partkey IN ("
      "    SELECT p_partkey FROM part WHERE p_name LIKE 'forest%') "
      "  AND ps_availqty > ("
      "    SELECT 0.5 * SUM(l_quantity) FROM lineitem "
      "    WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
      "    AND l_shipdate >= DATE '1994-01-01')) "
      "AND s_nationkey = n_nationkey AND n_name = 'CANADA' "
      "ORDER BY s_name");
  ASSERT_NE(root, nullptr);
}

TEST_F(AlgebraTest, ScalarEval) {
  // (1 + 2) * 3 = 9
  ScalarExprPtr e = MakeBinary(
      sql::BinaryOp::kMul,
      MakeBinary(sql::BinaryOp::kAdd, MakeLiteral(Datum::Int(1)),
                 MakeLiteral(Datum::Int(2))),
      MakeLiteral(Datum::Int(3)));
  auto v = EvalConstant(*e);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 9);
}

TEST_F(AlgebraTest, ThreeValuedLogic) {
  ScalarExprPtr null_lit = MakeLiteral(Datum::Null());
  ScalarExprPtr true_lit = MakeLiteral(Datum::Bool(true));
  ScalarExprPtr false_lit = MakeLiteral(Datum::Bool(false));
  // NULL AND FALSE = FALSE
  auto v = EvalConstant(*MakeBinary(sql::BinaryOp::kAnd, null_lit, false_lit));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->is_null());
  EXPECT_FALSE(v->bool_value());
  // NULL AND TRUE = NULL
  v = EvalConstant(*MakeBinary(sql::BinaryOp::kAnd, null_lit, true_lit));
  EXPECT_TRUE(v->is_null());
  // NULL OR TRUE = TRUE
  v = EvalConstant(*MakeBinary(sql::BinaryOp::kOr, null_lit, true_lit));
  EXPECT_TRUE(v->bool_value());
  // NULL = NULL is NULL
  v = EvalConstant(*MakeBinary(sql::BinaryOp::kEq, null_lit, null_lit));
  EXPECT_TRUE(v->is_null());
}

TEST_F(AlgebraTest, EquivalenceClasses) {
  ColumnEquivalence eq;
  eq.AddEquality(1, 2);
  eq.AddEquality(2, 3);
  eq.AddEquality(10, 11);
  EXPECT_TRUE(eq.AreEquivalent(1, 3));
  EXPECT_FALSE(eq.AreEquivalent(1, 10));
  EXPECT_EQ(eq.ClassOf(3).size(), 3u);
  EXPECT_EQ(eq.NonTrivialClasses().size(), 2u);
  EXPECT_EQ(eq.Find(3), eq.Find(1));
}

TEST_F(AlgebraTest, PushdownPlacesFilterOnTable) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 100");
  ASSERT_NE(root, nullptr);
  // Cross join became inner join with the equi condition.
  const LogicalOp* join = FindKind(*root, LogicalOpKind::kJoin);
  ASSERT_NE(join, nullptr);
  const auto& j = static_cast<const LogicalJoin&>(*join);
  EXPECT_EQ(j.join_type(), LogicalJoinType::kInner);
  EXPECT_FALSE(j.conditions().empty());
  // The o_totalprice filter sits below the join.
  const LogicalOp* filter = FindKind(*join, LogicalOpKind::kFilter);
  ASSERT_NE(filter, nullptr);
}

TEST_F(AlgebraTest, ContradictionDetection) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name FROM customer WHERE c_acctbal > 100 AND c_acctbal < 50");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(FindKind(*root, LogicalOpKind::kEmpty), nullptr);
}

TEST_F(AlgebraTest, ContradictionOnConflictingEquality) {
  LogicalOpPtr root = BindNormalized(
      "SELECT n_name FROM nation WHERE n_name = 'CANADA' AND n_name = 'PERU'");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(FindKind(*root, LogicalOpKind::kEmpty), nullptr);
}

TEST_F(AlgebraTest, EmptyPropagatesThroughInnerJoin) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey "
      "AND o_totalprice > 100 AND o_totalprice < 50");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(CountKind(*root, LogicalOpKind::kJoin), 0);
  EXPECT_NE(FindKind(*root, LogicalOpKind::kEmpty), nullptr);
}

TEST_F(AlgebraTest, TransitivityClosureDerivesConstant) {
  // c_custkey = o_custkey AND c_custkey = 7 should derive o_custkey = 7 on
  // the orders side.
  LogicalOpPtr root = BindNormalized(
      "SELECT o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND c_custkey = 7");
  ASSERT_NE(root, nullptr);
  // Count filters below the join referencing orders' side.
  int filters = CountKind(*root, LogicalOpKind::kFilter);
  EXPECT_GE(filters, 2) << LogicalTreeToString(*root);
}

TEST_F(AlgebraTest, RedundantJoinEliminated) {
  // Join customer-orders on customer's PK, selecting only orders columns:
  // customer is redundant under referential integrity.
  LogicalOpPtr root = BindNormalized(
      "SELECT o_totalprice FROM orders, customer WHERE o_custkey = c_custkey");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(CountKind(*root, LogicalOpKind::kJoin), 0)
      << LogicalTreeToString(*root);
}

TEST_F(AlgebraTest, RedundantJoinKeptWhenColumnsUsed) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name, o_totalprice FROM orders, customer "
      "WHERE o_custkey = c_custkey");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(CountKind(*root, LogicalOpKind::kJoin), 1);
}

TEST_F(AlgebraTest, ColumnPruningTrimsGets) {
  LogicalOpPtr root = BindNormalized("SELECT c_name FROM customer");
  ASSERT_NE(root, nullptr);
  const LogicalOp* get = FindKind(*root, LogicalOpKind::kGet);
  ASSERT_NE(get, nullptr);
  // c_name plus c_custkey: pruning keeps the hash-distribution column so
  // the PDW optimizer can see the scan's physical distribution.
  const auto& bindings = static_cast<const LogicalGet&>(*get).bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].name, "c_custkey");
  EXPECT_EQ(bindings[1].name, "c_name");
}

TEST_F(AlgebraTest, ColumnPruningDropsNonDistributionColumns) {
  LogicalOpPtr root = BindNormalized("SELECT n_name FROM nation");
  ASSERT_NE(root, nullptr);
  const LogicalOp* get = FindKind(*root, LogicalOpKind::kGet);
  ASSERT_NE(get, nullptr);
  // nation is replicated: no distribution column to preserve.
  EXPECT_EQ(static_cast<const LogicalGet&>(*get).bindings().size(), 1u);
}

TEST_F(AlgebraTest, ConstantFoldingSimplifiesPredicate) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name FROM customer WHERE 1 = 1 AND c_acctbal > 10 + 20");
  ASSERT_NE(root, nullptr);
  const LogicalOp* filter = FindKind(*root, LogicalOpKind::kFilter);
  ASSERT_NE(filter, nullptr);
  const auto& f = static_cast<const LogicalFilter&>(*filter);
  ASSERT_EQ(f.conjuncts().size(), 1u);
  // 10 + 20 folded to literal 30.
  std::string text = f.conjuncts()[0]->ToString();
  EXPECT_NE(text.find("30"), std::string::npos) << text;
}

TEST_F(AlgebraTest, LeftJoinNullRejectionBecomesInner) {
  LogicalOpPtr root = BindNormalized(
      "SELECT c_name FROM customer c LEFT JOIN orders o "
      "ON c_custkey = o_custkey WHERE o_totalprice > 100");
  ASSERT_NE(root, nullptr);
  const LogicalOp* join = FindKind(*root, LogicalOpKind::kJoin);
  // The join may have been eliminated entirely or converted to inner; it
  // must not remain a left outer join.
  if (join != nullptr) {
    EXPECT_NE(static_cast<const LogicalJoin&>(*join).join_type(),
              LogicalJoinType::kLeftOuter);
  }
}

TEST_F(AlgebraTest, SubstituteAndReplaceHelpers) {
  ColumnBinding a{1, "a", TypeId::kInt};
  ScalarExprPtr col = MakeColumn(a);
  ScalarExprPtr sum = MakeBinary(sql::BinaryOp::kAdd, col, MakeLiteral(Datum::Int(1)));
  std::map<ColumnId, ScalarExprPtr> mapping{{1, MakeLiteral(Datum::Int(5))}};
  ScalarExprPtr substituted = SubstituteColumns(sum, mapping);
  auto v = EvalConstant(*substituted);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 6);

  ScalarExprPtr replaced = ReplaceSubtree(sum, col, MakeLiteral(Datum::Int(10)));
  v = EvalConstant(*replaced);
  EXPECT_EQ(v->int_value(), 11);
}

}  // namespace
}  // namespace pdw
