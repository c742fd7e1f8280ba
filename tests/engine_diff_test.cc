// Differential fuzz test of the two local execution engines: every seeded
// random query runs through both the row-at-a-time reference interpreter
// and the vectorized batch engine over the same NULL-heavy data, and the
// result multisets must match (RowSetsEqual). Queries mix joins (inner,
// left outer, semi/anti via EXISTS, IN subqueries), expressions, grouped
// and DISTINCT aggregation, HAVING, ORDER BY and LIMIT; batch sizes vary
// per seed so batch-boundary behaviour is fuzzed too. Dedicated tests pin
// the boundary cases: empty input, exactly one batch, and batch size 1.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "engine/local_engine.h"

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
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static void ExpectEnginesAgree(const std::string& sql, int batch_size) {
    SCOPED_TRACE(sql);
    ExecOptions row_opts;
    row_opts.engine = EngineKind::kRow;
    ExecOptions batch_opts;
    batch_opts.engine = EngineKind::kBatch;
    batch_opts.batch_size = batch_size;
    auto row = engine_->ExecuteSql(sql, nullptr, row_opts);
    auto batch = engine_->ExecuteSql(sql, nullptr, batch_opts);
    // Runtime errors (e.g. a generated division by zero) must surface from
    // both engines or neither.
    ASSERT_EQ(row.ok(), batch.ok())
        << "engines disagree on error status\nrow:   "
        << row.status().ToString() << "\nbatch: " << batch.status().ToString();
    if (!row.ok()) return;
    EXPECT_TRUE(RowSetsEqual(row->rows, batch->rows))
        << "row engine: " << row->rows.size()
        << " rows, batch engine: " << batch->rows.size() << " rows";
  }

  static LocalEngine* engine_;
};

LocalEngine* EngineDiffTest::engine_ = nullptr;

TEST_P(EngineDiffTest, BatchMatchesRow) {
  uint32_t seed = GetParam();
  // Vary batch size with the seed so batch boundaries land everywhere:
  // mid-batch, on row 0, past the end, and degenerate single-row batches.
  const int kBatchSizes[] = {1, 3, 64, 256, 1024};
  ExpectEnginesAgree(BuildQuery(seed), kBatchSizes[seed % 5]);
}

// >= 200 random queries through both engines.
INSTANTIATE_TEST_SUITE_P(Seeds, EngineDiffTest, ::testing::Range(1u, 221u));

// --- batch-boundary edge cases ---

TEST_F(EngineDiffTest, EmptyInput) {
  ExpectEnginesAgree("SELECT a, b FROM tempty", 1024);
  ExpectEnginesAgree("SELECT a FROM tempty WHERE a > 3", 1024);
  ExpectEnginesAgree("SELECT b, COUNT(*) AS c FROM tempty GROUP BY b", 1024);
  // Scalar aggregate over nothing still yields exactly one row.
  ExpectEnginesAgree("SELECT COUNT(*) AS c, SUM(a) AS s FROM tempty", 1024);
  ExpectEnginesAgree(
      "SELECT a, x FROM tempty LEFT JOIN tb ON a = x", 1024);
  ExpectEnginesAgree("SELECT a, b FROM ta JOIN tempty ON ta.a = tempty.b",
                     1024);
}

TEST_F(EngineDiffTest, ExactlyOneBatch) {
  // Batch size equal to the table's row count: one full batch, no partial
  // second batch.
  ExpectEnginesAgree("SELECT a, b, v FROM ta WHERE b > 2", 700);
  ExpectEnginesAgree("SELECT b, COUNT(*) AS c, SUM(v) AS s FROM ta GROUP BY b",
                     700);
}

TEST_F(EngineDiffTest, BatchSizeOne) {
  // Every row is its own batch.
  ExpectEnginesAgree("SELECT a, b FROM ta WHERE v > 40 AND b <= 6", 1);
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT a) AS da FROM ta GROUP BY b", 1);
  ExpectEnginesAgree("SELECT a, y FROM ta JOIN tb ON a = x AND w > 10", 1);
}

// --- partial-aggregate step shapes (PR 9) ---
//
// Pushed-down partial aggregates reach the node-local engines as plain
// GROUP BY steps keyed on {grouping cols ∩ side} ∪ {join keys} — wider,
// NULL-heavier key sets than a final aggregate, typically followed by a
// second aggregation of the partial output. Exercise those shapes through
// both engines at adversarial batch sizes.

TEST_F(EngineDiffTest, PartialAggregateKeyShapes) {
  for (int batch : {1, 7, 256, 1024}) {
    // Multi-key partial: join key + grouping key, NULLs group together.
    ExpectEnginesAgree(
        "SELECT a, b, COUNT(*) AS c, SUM(v) AS s, COUNT(v) AS cv "
        "FROM ta GROUP BY a, b",
        batch);
    // MIN/MAX partials are idempotent under re-aggregation.
    ExpectEnginesAgree(
        "SELECT b, d, MIN(v) AS lo, MAX(v) AS hi FROM ta GROUP BY b, d",
        batch);
  }
}

TEST_F(EngineDiffTest, ReaggregationOfPartialOutput) {
  // The global phase over a partial: SUM of partial sums / SUM of partial
  // counts, written the way sql_gen renders the split phases.
  ExpectEnginesAgree(
      "SELECT b, SUM(s) AS s, SUM(c) AS c FROM "
      "(SELECT a, b, SUM(v) AS s, COUNT(v) AS c FROM ta GROUP BY a, b) AS p "
      "GROUP BY b",
      64);
  ExpectEnginesAgree(
      "SELECT d, MIN(lo) AS lo, MAX(hi) AS hi FROM "
      "(SELECT b, d, MIN(v) AS lo, MAX(v) AS hi FROM ta GROUP BY b, d) AS p "
      "GROUP BY d",
      3);
}

TEST_F(EngineDiffTest, PartialAggregateEmptyAndDistinct) {
  // Empty input: a partial produces zero groups, not one.
  ExpectEnginesAgree(
      "SELECT a, b, COUNT(*) AS c, SUM(a) AS s FROM tempty GROUP BY a, b",
      1024);
  // DISTINCT aggregates never push down, but the enumerator's refusal
  // must not be masked by an engine divergence on the un-pushed shape.
  ExpectEnginesAgree(
      "SELECT b, COUNT(DISTINCT v) AS dv, SUM(v) AS s FROM ta GROUP BY b",
      17);
}

}  // namespace
}  // namespace pdw
