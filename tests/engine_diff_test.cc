// Differential fuzz test of the two local execution engines: every seeded
// random query runs through both the row-at-a-time reference interpreter
// and the vectorized batch engine over the same NULL-heavy data, and the
// result multisets must match (RowSetsEqual). Queries mix joins (inner,
// left outer, semi/anti via EXISTS, IN subqueries), expressions, grouped
// and DISTINCT aggregation, HAVING, ORDER BY and LIMIT. Dedicated tests
// pin empty inputs, a whole table as one batch, one-row batches, and each
// path on which the batch engine forwards a column instead of copying it.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "engine/local_engine.h"
#include "test_util.h"

namespace pdw {
namespace {

// --- data generation: small domains, ~25% NULLs per nullable column ---

Datum MaybeNull(std::mt19937* rng, Datum v) {
  return std::uniform_int_distribution<int>(0, 3)(*rng) == 0 ? Datum::Null()
                                                             : std::move(v);
}

RowVector MakeTaRows(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const char* words[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
  RowVector rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row r;
    r.push_back(MaybeNull(&rng, Datum::Int(pick(0, 49))));
    r.push_back(MaybeNull(&rng, Datum::Int(pick(0, 9))));
    r.push_back(MaybeNull(&rng, Datum::Double(pick(0, 200) / 2.0)));
    r.push_back(MaybeNull(&rng, Datum::Varchar(words[pick(0, 7)])));
    r.push_back(MaybeNull(&rng, Datum::Date(8766 + pick(0, 1000))));
    rows.push_back(std::move(r));
  }
  return rows;
}

RowVector MakeTbRows(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const char* words[] = {"red", "green", "blue", "cyan"};
  RowVector rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row r;
    r.push_back(MaybeNull(&rng, Datum::Int(pick(0, 49))));
    r.push_back(MaybeNull(&rng, Datum::Int(pick(0, 9))));
    r.push_back(MaybeNull(&rng, Datum::Double(pick(0, 100) / 4.0)));
    r.push_back(MaybeNull(&rng, Datum::Varchar(words[pick(0, 3)])));
    rows.push_back(std::move(r));
  }
  return rows;
}

// --- query generation ---

std::string BuildQuery(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };

  // Join shape around the driving table ta.
  int join_kind = pick(6);  // 0-1 none, 2 inner, 3 left, 4 exists/not, 5 in
  std::string from = "ta";
  bool has_tb_cols = false;
  std::string where;
  auto add_where = [&](const std::string& pred) {
    where += where.empty() ? " WHERE " : " AND ";
    where += pred;
  };
  switch (join_kind) {
    case 2:
      from += " JOIN tb ON a = x";
      if (pick(2) == 0) from += " AND y < 8";
      has_tb_cols = true;
      break;
    case 3:
      from += " LEFT JOIN tb ON a = x";
      has_tb_cols = true;
      break;
    case 4:
      add_where(std::string(pick(2) == 0 ? "" : "NOT ") +
                "EXISTS (SELECT x FROM tb WHERE x = a AND w > " +
                std::to_string(pick(20)) + ")");
      break;
    case 5:
      add_where("b IN (SELECT y FROM tb WHERE w < " +
                std::to_string(5 + pick(20)) + ")");
      break;
    default:
      break;
  }

  // 0-2 extra filters from a pool exercising every predicate kernel.
  const std::vector<std::string> preds = {
      "a > 25",
      "b <= 4",
      "v >= 50.5",
      "v < b * 12",
      "a <> b",
      "a IS NULL",
      "v IS NOT NULL",
      "s LIKE '%a%'",
      "s NOT LIKE 'b%'",
      "a + b > 30",
      "a % 3 = 1",
      "v / 2 > 20",
      "d >= DATE '1994-06-01'",
      "b BETWEEN 2 AND 7",
      "a IN (1, 5, 12, 33)",
      "CASE WHEN b > 5 THEN v ELSE 100 - v END > 40",
  };
  int nfilters = pick(3);
  for (int i = 0; i < nfilters; ++i) {
    add_where(preds[static_cast<size_t>(pick(static_cast<int>(preds.size())))]);
  }

  // SELECT list: aggregate (grouped or scalar) or plain/expression columns.
  int shape = pick(4);
  std::string sql;
  if (shape == 0) {
    // Grouped aggregation, sometimes DISTINCT aggs and HAVING.
    std::string group = pick(2) == 0 ? "b" : "a";
    std::string aggs = "COUNT(*) AS cnt, SUM(v) AS sv, MIN(s) AS mn";
    if (pick(2) == 0) aggs += ", AVG(v) AS av";
    if (pick(2) == 0) aggs += ", COUNT(DISTINCT a) AS da";
    if (pick(3) == 0) aggs += ", SUM(DISTINCT b) AS db";
    sql = "SELECT " + group + ", " + aggs + " FROM " + from + where +
          " GROUP BY " + group;
    if (pick(2) == 0) sql += " HAVING COUNT(*) > 1";
  } else if (shape == 1) {
    // Scalar aggregate (exercises the empty-input one-row path too).
    sql = "SELECT COUNT(*) AS cnt, COUNT(v) AS cv, SUM(a) AS sa, MAX(d) AS "
          "md, MIN(v) AS mv FROM " +
          from + where;
  } else if (shape == 2) {
    // Expression projections.
    sql = "SELECT a, a * 2 + b AS e1, CASE WHEN v > 50 THEN 'hi' WHEN v > 20 "
          "THEN 'mid' ELSE s END AS e2, CAST(v AS INT) AS e3, v IS NULL AS "
          "e4 FROM " +
          from + where;
  } else {
    // Plain columns; the only shape that may take ORDER BY + LIMIT.
    sql = "SELECT a, b, v, s FROM " + from + where;
    if (has_tb_cols && pick(2) == 0) {
      sql = "SELECT a, b, x, y, w FROM " + from + where;
    }
    if (pick(2) == 0) {
      // ORDER BY covers every output column, so even with ties a LIMIT
      // prefix is multiset-determined and the engines must agree exactly.
      size_t sel_start = sql.find("SELECT ") + 7;
      std::string cols = sql.substr(sel_start, sql.find(" FROM") - sel_start);
      sql += " ORDER BY " + cols;
      if (pick(2) == 0) sql += " LIMIT " + std::to_string(1 + pick(40));
    }
  }
  return sql;
}

class EngineDiffTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static void SetUpTestSuite() {
    engine_ = new LocalEngine();
    ASSERT_TRUE(engine_
                    ->ExecuteSql("CREATE TABLE ta (a INT, b INT, v DOUBLE, "
                                 "s VARCHAR(16), d DATE)")
                    .ok());
    ASSERT_TRUE(engine_
                    ->ExecuteSql("CREATE TABLE tb (x INT, y INT, w DOUBLE, "
                                 "t VARCHAR(16))")
                    .ok());
    ASSERT_TRUE(engine_
                    ->ExecuteSql("CREATE TABLE tempty (a INT, b INT, "
                                 "v DOUBLE, s VARCHAR(16), d DATE)")
                    .ok());
    ASSERT_TRUE(engine_->InsertRows("ta", MakeTaRows(700, 77)).ok());
    ASSERT_TRUE(engine_->InsertRows("tb", MakeTbRows(300, 99)).ok());
    // tk: unique keys 0..39; tdup: keys 0..19, each twice.
    ASSERT_TRUE(
        engine_->ExecuteSql("CREATE TABLE tk (k INT, label VARCHAR(16))").ok());
    ASSERT_TRUE(
        engine_->ExecuteSql("CREATE TABLE tdup (k2 INT, tag VARCHAR(16))")
            .ok());
    RowVector tk, tdup;
    for (int k = 0; k < 40; ++k) {
      tk.push_back({Datum::Int(k), Datum::Varchar("l" + std::to_string(k % 7))});
    }
    for (int k = 19; k >= -20; --k) {
      int key = k < 0 ? -k - 1 : k;
      tdup.push_back({Datum::Int(key), Datum::Varchar("t" + std::to_string(k))});
    }
    ASSERT_TRUE(engine_->InsertRows("tk", tk).ok());
    ASSERT_TRUE(engine_->InsertRows("tdup", tdup).ok());
    // tone: ta's schema with one row; its key 7 matches tk.
    ASSERT_TRUE(engine_
                    ->ExecuteSql("CREATE TABLE tone (a INT, b INT, v DOUBLE, "
                                 "s VARCHAR(16), d DATE)")
                    .ok());
    ASSERT_TRUE(engine_
                    ->InsertRows("tone", {{Datum::Int(7), Datum::Int(3),
                                           Datum::Double(45.5),
                                           Datum::Varchar("beta"),
                                           Datum::Date(9000)}})
                    .ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static void ExpectEnginesAgree(const std::string& sql) {
    SCOPED_TRACE(sql);
    testing::EngineRows got = testing::RunBothEngines(*engine_, sql);
    // Runtime errors (e.g. a generated division by zero) must surface from
    // both engines or neither.
    ASSERT_EQ(got.row.ok(), got.batch.ok())
        << "engines disagree on error status\nrow:   "
        << got.row.status().ToString()
        << "\nbatch: " << got.batch.status().ToString();
    if (!got.row.ok()) return;
    EXPECT_TRUE(RowSetsEqual(*got.row, *got.batch))
        << "row engine: " << got.row->size()
        << " rows, batch engine: " << got.batch->size() << " rows";
  }

  static LocalEngine* engine_;
};

LocalEngine* EngineDiffTest::engine_ = nullptr;

TEST_P(EngineDiffTest, BatchMatchesRow) {
  ExpectEnginesAgree(BuildQuery(GetParam()));
}

// >= 200 random queries through both engines.
INSTANTIATE_TEST_SUITE_P(Seeds, EngineDiffTest, ::testing::Range(1u, 221u));

TEST_F(EngineDiffTest, EmptyInput) {
  ExpectEnginesAgree("SELECT a, b FROM tempty");
  ExpectEnginesAgree("SELECT a FROM tempty WHERE a > 3");
  ExpectEnginesAgree("SELECT b, COUNT(*) AS c FROM tempty GROUP BY b");
  // Scalar aggregate over nothing still yields exactly one row.
  ExpectEnginesAgree("SELECT COUNT(*) AS c, SUM(a) AS s FROM tempty");
  ExpectEnginesAgree("SELECT a, x FROM tempty LEFT JOIN tb ON a = x");
  ExpectEnginesAgree("SELECT a, b FROM ta JOIN tempty ON ta.a = tempty.b");
}

TEST_F(EngineDiffTest, ExactlyOneBatch) {
  // A scan shares the stored columns whole: all 700 rows of ta are one
  // batch, which the filter narrows by its selection alone.
  ExpectEnginesAgree("SELECT a, b, v FROM ta WHERE b > 2");
  ExpectEnginesAgree("SELECT b, COUNT(*) AS c, SUM(v) AS s FROM ta GROUP BY b");
}

TEST_F(EngineDiffTest, BatchSizeOne) {
  // A filter, a DISTINCT aggregate and a join over the full tables.
  ExpectEnginesAgree("SELECT a, b FROM ta WHERE v > 40 AND b <= 6");
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT a) AS da FROM ta GROUP BY b");
  ExpectEnginesAgree("SELECT a, y FROM ta JOIN tb ON a = x AND w > 10");
  // A one-row table: every operator's single batch holds one row.
  ExpectEnginesAgree("SELECT a, b, v, s, d FROM tone");
  ExpectEnginesAgree("SELECT a, b FROM tone WHERE v > 40 AND b <= 6");
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT a) AS da, SUM(v) AS sv FROM tone GROUP BY b");
  ExpectEnginesAgree("SELECT COUNT(*) AS c, AVG(v) AS av FROM tone");
  // The one row on the probe side, then on the build side.
  ExpectEnginesAgree("SELECT a, label FROM tk JOIN tone ON a = k");
  ExpectEnginesAgree("SELECT a, label FROM tone JOIN tk ON a = k");
  ExpectEnginesAgree("SELECT a, s FROM tone UNION ALL SELECT a, s FROM tone");
  ExpectEnginesAgree("SELECT a, b FROM tone ORDER BY a, b LIMIT 1");
}

// Each path on which the batch engine forwards a column instead of copying
// it, next to the gathers it falls back to. In the serial plans here the
// second table in FROM is the hash join's probe side.
TEST_F(EngineDiffTest, ForwardedColumns) {
  // Bare-reference projections three deep, forwarding over a filter.
  ExpectEnginesAgree(
      "SELECT a2, s2 FROM (SELECT a1 AS a2, s1 AS s2 FROM "
      "(SELECT a AS a1, s AS s1, v FROM ta WHERE b > 3) AS p1) AS p2");
  // A sort permutes the selection over the shared columns; the limit cuts
  // it. ORDER BY every output column keeps the prefix determined.
  ExpectEnginesAgree(
      "SELECT a, b, v, s FROM ta WHERE b > 2 ORDER BY a, b, v, s LIMIT 25");
  // Every probe row (tdup) matches one build row: probe columns forwarded.
  ExpectEnginesAgree("SELECT k2, tag, label FROM tk JOIN tdup ON k2 = k");
  // Probe rows (tk) that match twice or not at all — as many emissions as
  // probe rows, but not each row once in order: probe columns gathered.
  ExpectEnginesAgree("SELECT k, label, tag FROM tdup JOIN tk ON k2 = k");
  // Unmatched probe rows of a LEFT JOIN: each probe row emitted once, so
  // forwarded, with NULL-padded build columns.
  ExpectEnginesAgree("SELECT a, b, k, label FROM ta LEFT JOIN tk ON a = k");
  // A self-join: both sides scan the same stored columns.
  ExpectEnginesAgree(
      "SELECT t1.k, t1.label, t2.label FROM tk AS t1 JOIN tk AS t2 "
      "ON t1.k = t2.k");
  // A table unioned with itself: the second child's rows append to the
  // first child's shared columns.
  ExpectEnginesAgree("SELECT a, s FROM ta UNION ALL SELECT a, s FROM ta");
  // One column forwarded twice by a projection, under and over GROUP BY.
  ExpectEnginesAgree("SELECT b, b AS b2, SUM(v) AS s FROM ta GROUP BY b");
  ExpectEnginesAgree(
      "SELECT a2, COUNT(*) AS c FROM (SELECT a, a AS a2 FROM ta WHERE b > 1) "
      "AS p GROUP BY a2");
  // DISTINCT aggregates over forwarded columns.
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT s) AS ds, SUM(DISTINCT a) AS sa FROM "
      "(SELECT a, b, s FROM ta WHERE v > 10) AS p GROUP BY b");
}

// --- partial-aggregate step shapes (PR 9) ---
//
// Pushed-down partial aggregates reach the node-local engines as plain
// GROUP BY steps keyed on {grouping cols ∩ side} ∪ {join keys} — wider,
// NULL-heavier key sets than a final aggregate, typically followed by a
// second aggregation of the partial output. Exercise those shapes through
// both engines.

TEST_F(EngineDiffTest, PartialAggregateKeyShapes) {
  // Multi-key partial: join key + grouping key, NULLs group together.
  ExpectEnginesAgree(
      "SELECT a, b, COUNT(*) AS c, SUM(v) AS s, COUNT(v) AS cv "
      "FROM ta GROUP BY a, b");
  // MIN/MAX partials are idempotent under re-aggregation.
  ExpectEnginesAgree(
      "SELECT b, d, MIN(v) AS lo, MAX(v) AS hi FROM ta GROUP BY b, d");
}

TEST_F(EngineDiffTest, ReaggregationOfPartialOutput) {
  // The global phase over a partial: SUM of partial sums / SUM of partial
  // counts, written the way sql_gen renders the split phases.
  ExpectEnginesAgree(
      "SELECT b, SUM(s) AS s, SUM(c) AS c FROM "
      "(SELECT a, b, SUM(v) AS s, COUNT(v) AS c FROM ta GROUP BY a, b) AS p "
      "GROUP BY b");
  ExpectEnginesAgree(
      "SELECT d, MIN(lo) AS lo, MAX(hi) AS hi FROM "
      "(SELECT b, d, MIN(v) AS lo, MAX(v) AS hi FROM ta GROUP BY b, d) AS p "
      "GROUP BY d");
}

TEST_F(EngineDiffTest, PartialAggregateEmptyAndDistinct) {
  // Empty input: a partial produces zero groups, not one.
  ExpectEnginesAgree(
      "SELECT a, b, COUNT(*) AS c, SUM(a) AS s FROM tempty GROUP BY a, b");
  // DISTINCT aggregates never push down, but the enumerator's refusal
  // must not be masked by an engine divergence on the un-pushed shape.
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT v) AS dv, SUM(v) AS s FROM ta GROUP BY b");
}

}  // namespace
}  // namespace pdw
