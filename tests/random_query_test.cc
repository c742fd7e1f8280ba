// Property-based end-to-end test: randomly generated queries over the
// TPC-H schema must produce identical row sets when executed distributed
// (full PDW pipeline: compile -> XML -> parallel optimize -> DSQL ->
// per-node SQL re-parse -> DMS routing) and on the single-node reference
// engine. Each seed derives one query deterministically.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "appliance/appliance.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

struct TableInfo {
  const char* name;
  std::vector<const char*> int_cols;
  std::vector<const char*> num_cols;  // numeric filter candidates
};

const std::vector<TableInfo>& Tables() {
  static const auto* kTables = new std::vector<TableInfo>{
      {"customer", {"c_custkey", "c_nationkey"}, {"c_acctbal"}},
      {"orders", {"o_orderkey", "o_custkey"}, {"o_totalprice"}},
      {"lineitem",
       {"l_orderkey", "l_partkey", "l_suppkey"},
       {"l_quantity", "l_extendedprice"}},
      {"supplier", {"s_suppkey", "s_nationkey"}, {"s_acctbal"}},
      {"part", {"p_partkey", "p_size"}, {"p_retailprice"}},
      {"partsupp", {"ps_partkey", "ps_suppkey"}, {"ps_supplycost"}},
      {"nation", {"n_nationkey", "n_regionkey"}, {}},
  };
  return *kTables;
}

/// Join edges of the TPC-H FK graph (table index pairs + columns).
struct JoinEdge {
  int a;
  int b;
  const char* a_col;
  const char* b_col;
};

const std::vector<JoinEdge>& Edges() {
  static const auto* kEdges = new std::vector<JoinEdge>{
      {0, 1, "c_custkey", "o_custkey"},
      {1, 2, "o_orderkey", "l_orderkey"},
      {2, 3, "l_suppkey", "s_suppkey"},
      {2, 4, "l_partkey", "p_partkey"},
      {4, 5, "p_partkey", "ps_partkey"},
      {3, 5, "s_suppkey", "ps_suppkey"},
      {0, 6, "c_nationkey", "n_nationkey"},
      {3, 6, "s_nationkey", "n_nationkey"},
  };
  return *kEdges;
}

std::string BuildRandomQuery(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };

  // Grow a connected set of 1..4 tables along FK edges.
  std::vector<int> chosen = {pick(static_cast<int>(Tables().size()))};
  std::vector<const JoinEdge*> used_edges;
  int want = 1 + pick(4);
  for (int tries = 0; static_cast<int>(chosen.size()) < want && tries < 20;
       ++tries) {
    const JoinEdge& e = Edges()[static_cast<size_t>(
        pick(static_cast<int>(Edges().size())))];
    bool has_a = false, has_b = false;
    for (int t : chosen) {
      if (t == e.a) has_a = true;
      if (t == e.b) has_b = true;
    }
    if (has_a == has_b) continue;  // need exactly one side present
    chosen.push_back(has_a ? e.b : e.a);
    used_edges.push_back(&e);
  }

  // SELECT list: one int column per table, or an aggregate query.
  bool aggregate = pick(3) == 0;
  std::string select;
  std::string group_col;
  if (aggregate) {
    const TableInfo& t = Tables()[static_cast<size_t>(chosen[0])];
    group_col = t.int_cols[static_cast<size_t>(
        pick(static_cast<int>(t.int_cols.size())))];
    select = std::string(group_col) + ", COUNT(*) AS cnt";
    // Maybe a SUM over a numeric column of any chosen table.
    for (int ti : chosen) {
      const TableInfo& tt = Tables()[static_cast<size_t>(ti)];
      if (!tt.num_cols.empty() && pick(2) == 0) {
        select += std::string(", SUM(") + tt.num_cols[0] + ") AS s";
        break;
      }
    }
  } else {
    bool first = true;
    for (int ti : chosen) {
      const TableInfo& t = Tables()[static_cast<size_t>(ti)];
      if (!first) select += ", ";
      select += t.int_cols[0];
      first = false;
    }
  }

  // FROM + WHERE.
  std::string from;
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) from += ", ";
    from += Tables()[static_cast<size_t>(chosen[i])].name;
  }
  std::vector<std::string> conjuncts;
  for (const JoinEdge* e : used_edges) {
    conjuncts.push_back(std::string(e->a_col) + " = " + e->b_col);
  }
  // 0-2 random filters.
  int filters = pick(3);
  for (int f = 0; f < filters; ++f) {
    const TableInfo& t =
        Tables()[static_cast<size_t>(chosen[static_cast<size_t>(
            pick(static_cast<int>(chosen.size())))])];
    if (!t.num_cols.empty() && pick(2) == 0) {
      const char* col = t.num_cols[static_cast<size_t>(
          pick(static_cast<int>(t.num_cols.size())))];
      const char* op = pick(2) == 0 ? ">" : "<";
      conjuncts.push_back(std::string(col) + " " + op + " " +
                          std::to_string(pick(5000)));
    } else {
      const char* col = t.int_cols[static_cast<size_t>(
          pick(static_cast<int>(t.int_cols.size())))];
      conjuncts.push_back(std::string(col) + " > " + std::to_string(pick(50)));
    }
  }

  std::string sql = "SELECT " + select + " FROM " + from;
  if (!conjuncts.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conjuncts[i];
    }
  }
  if (aggregate) {
    sql += " GROUP BY " + group_col;
    if (pick(2) == 0) sql += " HAVING COUNT(*) >= 1";
  }
  if (pick(3) == 0) {
    // Deterministic ORDER BY over the first output column plus LIMIT.
    std::string first_col = aggregate
                                ? group_col
                                : Tables()[static_cast<size_t>(chosen[0])]
                                      .int_cols[0];
    sql += " ORDER BY " + first_col;
    if (pick(2) == 0) sql += " LIMIT " + std::to_string(1 + pick(50));
  }
  return sql;
}

class RandomQueryTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{4});
    session_ = new Session(appliance_->Connect());
    ASSERT_TRUE(tpch::CreateTpchTables(appliance_).ok());
    tpch::TpchConfig cfg;
    cfg.scale = 0.03;
    ASSERT_TRUE(tpch::LoadTpch(appliance_, cfg).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete appliance_;
    appliance_ = nullptr;
  }
  static Appliance* appliance_;
  static Session* session_;
};

Appliance* RandomQueryTest::appliance_ = nullptr;
Session* RandomQueryTest::session_ = nullptr;

TEST_P(RandomQueryTest, DistributedMatchesReference) {
  std::string sql = BuildRandomQuery(GetParam());
  SCOPED_TRACE(sql);
  auto dist = session_->Run(sql);
  ASSERT_TRUE(dist.ok()) << sql << "\n" << dist.status().ToString();
  auto ref = appliance_->ExecuteReference(sql);
  ASSERT_TRUE(ref.ok()) << sql << "\n" << ref.status().ToString();
  // LIMIT without a total order can legally differ; our ORDER BY always
  // covers the first column, which may still tie. Compare sizes for
  // limited queries, full multisets otherwise.
  if (sql.find(" LIMIT ") != std::string::npos) {
    EXPECT_EQ(dist->rows.size(), ref->rows.size()) << sql;
  } else {
    EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows))
        << sql << "\nplan:\n" << dist->plan_text;
  }
}

TEST_P(RandomQueryTest, PreaggSweepMatchesReference) {
  // Partial-aggregate pushdown must be invisible in results: the same
  // random query with the rewrite forced off and on agrees with the
  // reference oracle and with itself.
  // Non-aggregate seeds still exercise the off/on compile paths (the
  // enumerator simply finds no aggregate to push).
  uint32_t seed = GetParam();
  std::string sql = BuildRandomQuery(seed);
  SCOPED_TRACE(sql);

  std::vector<RowVector> got;
  for (int preagg : {0, 1}) {
    PdwCompilerOptions compiler;
    compiler.pdw.enable_preagg = preagg;
    auto res =
        session_->Run(sql, QueryOptions().WithCompilerOptions(compiler));
    ASSERT_TRUE(res.ok()) << sql << "\npreagg=" << preagg << "\n"
                          << res.status().ToString();
    got.push_back(res->rows);
  }
  auto ref = appliance_->ExecuteReference(sql);
  ASSERT_TRUE(ref.ok()) << sql << "\n" << ref.status().ToString();
  if (sql.find(" LIMIT ") != std::string::npos) {
    EXPECT_EQ(got[0].size(), ref->rows.size()) << sql;
    EXPECT_EQ(got[1].size(), ref->rows.size()) << sql;
  } else {
    EXPECT_TRUE(RowSetsEqual(got[0], ref->rows)) << sql << "\npreagg off";
    EXPECT_TRUE(RowSetsEqual(got[1], ref->rows)) << sql << "\npreagg on";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range(1u, 41u));

}  // namespace
}  // namespace pdw
