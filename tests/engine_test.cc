#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/local_engine.h"
#include "optimizer/serial_optimizer.h"
#include "stats/column_stats.h"
#include "test_util.h"

namespace {

/// Bytes this program has requested from the global operator new; the
/// copy-free scan test reads it around one plan execution.
std::atomic<uint64_t> g_new_bytes{0};

void* CountedAlloc(std::size_t n) noexcept {
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// Every unaligned form is replaced, so each allocation and release pairs
// malloc with free, also under the sanitizers' own allocators. Out of
// line, so the compiler never pairs an inlined free with a new.
void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pdw {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteSql(
                        "CREATE TABLE t (id INT, grp INT, v DOUBLE, "
                        "name VARCHAR(20), d DATE)")
                    .ok());
    ASSERT_TRUE(engine_
                    .ExecuteSql(
                        "INSERT INTO t VALUES "
                        "(1, 1, 10.5, 'alpha', '1994-01-01'), "
                        "(2, 1, 20.0, 'beta', '1994-06-01'), "
                        "(3, 2, 30.0, 'gamma', '1995-01-01'), "
                        "(4, 2, NULL, 'delta', '1995-06-01'), "
                        "(5, NULL, 50.0, 'epsilon', '1996-01-01')")
                    .ok());
  }

  RowVector Run(const std::string& sql) {
    auto r = engine_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r->rows : RowVector{};
  }

  LocalEngine engine_;
};

TEST_F(EngineTest, ScanAndFilter) {
  EXPECT_EQ(Run("SELECT id FROM t").size(), 5u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp = 1").size(), 2u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE v > 15 AND v < 45").size(), 2u);
  // NULL never satisfies a comparison.
  EXPECT_EQ(Run("SELECT id FROM t WHERE v <> 10.5").size(), 3u);
}

TEST_F(EngineTest, IsNullPredicates) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE v IS NULL").size(), 1u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp IS NOT NULL").size(), 4u);
}

TEST_F(EngineTest, ProjectionExpressions) {
  RowVector rows = Run("SELECT id * 2 + 1 AS x FROM t WHERE id = 3");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 7);
}

TEST_F(EngineTest, LikeAndStrings) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE name LIKE '%a'").size(), 4u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE name LIKE 'a%'").size(), 1u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE name NOT LIKE '%a'").size(), 1u);
}

TEST_F(EngineTest, DateComparisons) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE d >= DATE '1995-01-01'").size(), 3u);
  EXPECT_EQ(
      Run("SELECT id FROM t WHERE d < DATEADD(year, 1, '1994-06-01')").size(),
      3u);
}

TEST_F(EngineTest, AggregatesWithNulls) {
  RowVector rows =
      Run("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 5);   // COUNT(*) counts NULLs
  EXPECT_EQ(rows[0][1].int_value(), 4);   // COUNT(v) does not
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 110.5);
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 10.5);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 50.0);
  EXPECT_NEAR(rows[0][5].AsDouble(), 110.5 / 4, 1e-9);
}

TEST_F(EngineTest, GroupByIncludesNullGroup) {
  RowVector rows = Run("SELECT grp, COUNT(*) FROM t GROUP BY grp");
  EXPECT_EQ(rows.size(), 3u);  // groups 1, 2, NULL
}

TEST_F(EngineTest, ScalarAggregateOverEmptyInput) {
  RowVector rows = Run("SELECT COUNT(*), SUM(v) FROM t WHERE id > 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(EngineTest, GroupedAggregateOverEmptyInputIsEmpty) {
  EXPECT_EQ(Run("SELECT grp, COUNT(*) FROM t WHERE id > 100 GROUP BY grp").size(),
            0u);
}

TEST_F(EngineTest, DistinctAggregate) {
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (6, 1, 10.5, 'zeta', "
                                 "'1994-01-01')")
                  .ok());
  RowVector rows = Run("SELECT COUNT(DISTINCT v) FROM t");
  EXPECT_EQ(rows[0][0].int_value(), 4);  // 10.5, 20, 30, 50
}

TEST_F(EngineTest, SelectDistinct) {
  EXPECT_EQ(Run("SELECT DISTINCT grp FROM t").size(), 3u);
}

TEST_F(EngineTest, OrderByAndLimit) {
  RowVector rows = Run("SELECT id FROM t ORDER BY v DESC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_value(), 5);
  EXPECT_EQ(rows[1][0].int_value(), 3);
  // NULLs sort first ascending.
  rows = Run("SELECT id FROM t ORDER BY v LIMIT 1");
  EXPECT_EQ(rows[0][0].int_value(), 4);
}

TEST_F(EngineTest, CaseExpression) {
  RowVector rows = Run(
      "SELECT id, CASE WHEN v > 25 THEN 'big' WHEN v > 15 THEN 'mid' "
      "ELSE 'small' END AS size FROM t WHERE v IS NOT NULL ORDER BY id");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][1].string_value(), "small");
  EXPECT_EQ(rows[1][1].string_value(), "mid");
  EXPECT_EQ(rows[2][1].string_value(), "big");
}

TEST_F(EngineTest, JoinTypes) {
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE TABLE u (uid INT, label VARCHAR(10))")
                  .ok());
  ASSERT_TRUE(engine_
                  .ExecuteSql("INSERT INTO u VALUES (1, 'one'), (2, 'two'), "
                              "(2, 'deux'), (99, 'none')")
                  .ok());
  // Inner join with duplicate matches.
  EXPECT_EQ(Run("SELECT id, label FROM t, u WHERE id = uid").size(), 3u);
  // Left join preserves unmatched left rows.
  RowVector rows = Run(
      "SELECT id, label FROM t LEFT JOIN u ON id = uid ORDER BY id");
  EXPECT_EQ(rows.size(), 6u);  // 5 t-rows, id=2 doubled
  bool found_null = false;
  for (const Row& r : rows) {
    if (r[1].is_null()) found_null = true;
  }
  EXPECT_TRUE(found_null);
  // Semi via IN.
  EXPECT_EQ(Run("SELECT id FROM t WHERE id IN (SELECT uid FROM u)").size(), 2u);
  // Anti via NOT IN.
  EXPECT_EQ(Run("SELECT id FROM t WHERE id NOT IN (SELECT uid FROM u)").size(),
            3u);
  // EXISTS with correlation.
  EXPECT_EQ(Run("SELECT id FROM t WHERE EXISTS "
                "(SELECT uid FROM u WHERE uid = id)")
                .size(),
            2u);
}

TEST_F(EngineTest, CrossJoin) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE tiny (x INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO tiny VALUES (10), (20)").ok());
  EXPECT_EQ(Run("SELECT id, x FROM t CROSS JOIN tiny").size(), 10u);
}

TEST_F(EngineTest, DerivedTable) {
  RowVector rows = Run(
      "SELECT s.grp, s.total FROM "
      "(SELECT grp, SUM(v) AS total FROM t GROUP BY grp) AS s "
      "WHERE s.total > 25 ORDER BY s.grp");
  // grp=1 sums 30.5, grp=2 sums 30, grp=NULL sums 50: all exceed 25.
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(EngineTest, HavingClause) {
  RowVector rows =
      Run("SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) >= 2");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(EngineTest, InsertValidation) {
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES (1, 2)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO missing VALUES (1)").ok());
}

TEST_F(EngineTest, DivisionByZeroFailsExecution) {
  auto r = engine_.ExecuteSql("SELECT id / 0 FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(EngineTest, DropTable) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE tmp (a INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("DROP TABLE tmp").ok());
  EXPECT_FALSE(engine_.ExecuteSql("SELECT a FROM tmp").ok());
}

TEST_F(EngineTest, LocalStatsComputation) {
  auto stats = engine_.ComputeLocalStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 5);
  EXPECT_EQ(stats->columns.at("id").distinct_count, 5);
  EXPECT_EQ(stats->columns.at("v").null_count, 1);
}

/// Same row order, and per cell the same runtime type and value.
void ExpectSameRows(const RowVector& got, const RowVector& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_EQ(got[r][c].type(), want[r][c].type())
          << what << " row " << r << " col " << c;
      EXPECT_EQ(got[r][c].Compare(want[r][c]), 0)
          << what << " row " << r << " col " << c << ": "
          << got[r][c].ToString() << " vs " << want[r][c].ToString();
    }
  }
}

void ExpectSameDatum(const Datum& got, const Datum& want,
                     const std::string& what) {
  EXPECT_EQ(got.type(), want.type()) << what;
  EXPECT_EQ(got.Compare(want), 0) << what;
}

void ExpectSameColumnStats(const ColumnStats& got, const ColumnStats& want,
                           const std::string& col) {
  EXPECT_EQ(got.row_count, want.row_count) << col;
  EXPECT_EQ(got.distinct_count, want.distinct_count) << col;
  EXPECT_EQ(got.null_count, want.null_count) << col;
  EXPECT_EQ(got.avg_width, want.avg_width) << col;
  ExpectSameDatum(got.min_value, want.min_value, col + " min");
  ExpectSameDatum(got.max_value, want.max_value, col + " max");
  const Histogram& gh = got.histogram;
  const Histogram& wh = want.histogram;
  EXPECT_EQ(gh.min(), wh.min()) << col;
  EXPECT_EQ(gh.max(), wh.max()) << col;
  EXPECT_EQ(gh.total_rows(), wh.total_rows()) << col;
  ASSERT_EQ(gh.buckets().size(), wh.buckets().size()) << col;
  for (size_t b = 0; b < wh.buckets().size(); ++b) {
    EXPECT_EQ(gh.buckets()[b].upper_bound, wh.buckets()[b].upper_bound) << col;
    EXPECT_EQ(gh.buckets()[b].row_count, wh.buckets()[b].row_count) << col;
    EXPECT_EQ(gh.buckets()[b].distinct_count, wh.buckets()[b].distinct_count)
        << col;
  }
}

// Storage appends every INSERT to the table's column batch. A fill of
// one-row INSERTs must grow each column geometrically instead of
// reallocating and copying it on every append, on both append paths: the
// row loader and the per-element path of a range copy between storage
// classes.
TEST(ColumnVectorTest, OneRowAppendsGrowGeometrically) {
  constexpr int kAppends = 10000;
  ColumnVector from_rows(TypeId::kInt);
  ColumnVector from_range(TypeId::kInt);
  ColumnVector variant_src(TypeId::kInvalid);  // forces per-element copies
  size_t rows_changes = 0, range_changes = 0;
  for (int i = 0; i < kAppends; ++i) {
    size_t capacity = from_rows.nulls().capacity();
    from_rows.AppendRowsColumn({{Datum::Int(i)}}, 0);
    if (from_rows.nulls().capacity() != capacity) ++rows_changes;

    variant_src.Append(Datum::Int(i));
    capacity = from_range.nulls().capacity();
    from_range.AppendRangeFrom(variant_src, variant_src.size() - 1,
                               variant_src.size());
    if (from_range.nulls().capacity() != capacity) ++range_changes;
  }
  EXPECT_LE(rows_changes, 64u);
  EXPECT_LE(range_changes, 64u);
  ASSERT_EQ(from_rows.size(), static_cast<size_t>(kAppends));
  ASSERT_EQ(from_range.size(), static_cast<size_t>(kAppends));
  EXPECT_EQ(from_rows.tag(), VecTag::kInt64);
  EXPECT_EQ(from_range.tag(), VecTag::kInt64);
  for (int i : {0, kAppends / 2, kAppends - 1}) {
    EXPECT_EQ(from_rows.i64(static_cast<size_t>(i)), i);
    EXPECT_EQ(from_range.i64(static_cast<size_t>(i)), i);
  }
}

// Storage keeps each table as one column batch; what it hands back — to
// GetRows, to either engine's scan, and to the statistics builder — must be
// exactly what was inserted.
TEST_F(EngineTest, StorageRoundTripsInsertedRows) {
  Schema schema({{"i", TypeId::kInt, true},
                 {"f", TypeId::kDouble, true},
                 {"s", TypeId::kVarchar, true},
                 {"d", TypeId::kDate, true},
                 {"b", TypeId::kBool, true}});
  RowVector rows = {
      {Datum::Int(7), Datum::Double(0.1),
       Datum::Varchar("longer than the small-string buffer"),
       Datum::Date(8766), Datum::Bool(true)},
      {Datum::Null(), Datum::Null(), Datum::Null(), Datum::Null(),
       Datum::Null()},
      // A DOUBLE in the INT column promotes that column's storage.
      {Datum::Double(2.5), Datum::Double(-3), Datum::Varchar(""),
       Datum::Date(-1), Datum::Bool(false)},
      {Datum::Int(-7), Datum::Double(1e300), Datum::Varchar("it's"),
       Datum::Date(0), Datum::Null()},
      {Datum::Int(7), Datum::Null(), Datum::Varchar("b"), Datum::Null(),
       Datum::Bool(true)},
  };
  for (bool empty : {false, true}) {
    const std::string table = empty ? "rt_empty" : "rt";
    SCOPED_TRACE(table);
    const RowVector inserted = empty ? RowVector{} : rows;
    TableDef def;
    def.name = table;
    def.schema = schema;
    ASSERT_TRUE(engine_.CreateTable(def).ok());
    ASSERT_TRUE(engine_.InsertRows(table, inserted).ok());

    auto stored = engine_.GetRows(table);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ExpectSameRows(**stored, inserted, "GetRows");

    for (EngineKind kind : {EngineKind::kRow, EngineKind::kBatch}) {
      ExecOptions exec;
      exec.engine = kind;
      auto scanned =
          engine_.ExecuteSql("SELECT * FROM " + table, nullptr, exec);
      ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
      ExpectSameRows(scanned->rows, inserted,
                     kind == EngineKind::kRow ? "row scan" : "batch scan");
    }

    auto stats = engine_.ComputeLocalStats(table);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    TableStats want = TableStats::Build(
        inserted.size(), schema, [&inserted](size_t r, int c) {
          return inserted[r][static_cast<size_t>(c)];
        });
    EXPECT_EQ(stats->row_count, want.row_count);
    EXPECT_EQ(stats->avg_row_width, want.avg_row_width);
    ASSERT_EQ(stats->columns.size(), want.columns.size());
    for (const auto& [name, col] : want.columns) {
      ASSERT_EQ(stats->columns.count(name), 1u) << name;
      ExpectSameColumnStats(stats->columns.at(name), col, name);
    }
  }
}

// A node's plan is one node task: the batch engine runs every operator on
// the calling thread, so a grouped join matches the row engine and starts
// no pool task.
TEST_F(EngineTest, NodeLocalPlanRunsOnCallingThread) {
  ASSERT_TRUE(
      engine_.ExecuteSql("CREATE TABLE fact (fk INT, qty INT, price DOUBLE)")
          .ok());
  ASSERT_TRUE(
      engine_.ExecuteSql("CREATE TABLE dim (dk INT, label VARCHAR(10))").ok());
  RowVector fact, dim;
  for (int i = 0; i < 640; ++i) {
    fact.push_back({Datum::Int(i % 37), Datum::Int(i % 5),
                    Datum::Double(i * 0.25)});
  }
  for (int k = 0; k < 37; ++k) {
    dim.push_back({Datum::Int(k), Datum::Varchar("l" + std::to_string(k % 7))});
  }
  ASSERT_TRUE(engine_.InsertRows("fact", fact).ok());
  ASSERT_TRUE(engine_.InsertRows("dim", dim).ok());
  const std::string sql =
      "SELECT label, COUNT(*) AS c, SUM(qty) AS q, SUM(price) AS p "
      "FROM fact, dim WHERE fk = dk AND qty > 0 GROUP BY label";

  ExecOptions row;
  row.engine = EngineKind::kRow;
  auto want = engine_.ExecuteSql(sql, nullptr, row);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->rows.size(), 7u);

  uint64_t before = testing::IdlePoolTasksExecuted();
  auto got = engine_.ExecuteSql(sql);
  uint64_t after = testing::IdlePoolTasksExecuted();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameRows(got->rows, want->rows, "batch vs row");
  EXPECT_EQ(after, before) << "the node-local plan started pool tasks";
}

// Copies of a column share one payload until either side writes: every
// mutating call copies first, so an append to a stored column never
// reaches a plan still reading an earlier copy, and no write to a copy
// reaches the stored column.
TEST(ColumnVectorTest, CopiesShareUntilWritten) {
  ColumnVector stored(TypeId::kInt);
  stored.AppendRowsColumn({{Datum::Int(1)}, {Datum::Null()}}, 0);
  ColumnVector scanned = stored;
  stored.AppendI64(3);
  stored.Append(Datum::Double(0.5));  // promotes the stored column
  ASSERT_EQ(scanned.size(), 2u);
  EXPECT_EQ(scanned.tag(), VecTag::kInt64);
  EXPECT_EQ(scanned.i64(0), 1);
  EXPECT_TRUE(scanned.IsNull(1));
  ASSERT_EQ(stored.size(), 4u);
  EXPECT_EQ(stored.tag(), VecTag::kVariant);

  ColumnVector spliced(TypeId::kInt);
  spliced.AppendRangeFrom(scanned, 0, scanned.size());
  ColumnVector copy = scanned;
  copy.Clear();
  copy.AppendNull();
  scanned.AppendRowsColumn({{Datum::Int(7)}}, 0);
  EXPECT_EQ(spliced.size(), 2u);
  EXPECT_EQ(copy.size(), 1u);
  ASSERT_EQ(scanned.size(), 3u);
  EXPECT_EQ(scanned.i64(2), 7);

  // Gather: rows in the given order, -1 = NULL, storage kept.
  ColumnVector gathered = Gather(stored, {3, -1, 1, 0});
  ASSERT_EQ(gathered.size(), 4u);
  EXPECT_EQ(gathered.tag(), VecTag::kVariant);
  EXPECT_EQ(gathered.GetDatum(0), Datum::Double(0.5));
  EXPECT_TRUE(gathered.IsNull(1));
  EXPECT_TRUE(gathered.IsNull(2));
  EXPECT_EQ(gathered.GetDatum(3), Datum::Int(1));
  EXPECT_EQ(Gather(ColumnVector(TypeId::kDate), {-1, -1}).size(), 2u);
}

// A scan shares the stored columns and a projection of bare column
// references forwards its input's, so a filtered SUM over a derived table
// allocates the scan's selection vector, the gathered argument and its
// group indices — about 16 bytes per input row. Copying the two scanned
// INT columns alone would take 18, and the projection's copy 8 more.
TEST_F(EngineTest, ScanAndReferenceProjectionCopyNoColumn) {
  constexpr int kRows = 100000;
  ASSERT_TRUE(
      engine_.ExecuteSql("CREATE TABLE wide (a INT, b INT, c VARCHAR(20))")
          .ok());
  RowVector rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(
        {Datum::Int(i % 10 - 1), Datum::Int(i), Datum::Varchar("row")});
  }
  ASSERT_TRUE(engine_.InsertRows("wide", rows).ok());
  auto comp = CompileQuery(
      engine_.catalog(),
      "SELECT SUM(b) AS s FROM (SELECT a, b, c FROM wide) AS d WHERE a >= 0");
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto plan = ExtractBestSerialPlan(comp->memo.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The shape the bound assumes: a projection of bare column references
  // over the filter over the scan, under the aggregate.
  const PlanNode* node = plan->get();
  while (node->kind != PhysOpKind::kHashAggregate) {
    ASSERT_FALSE(node->children.empty()) << PlanTreeToString(**plan);
    node = node->children[0].get();
  }
  const PlanNode& project = *node->children[0];
  ASSERT_EQ(project.kind, PhysOpKind::kProject) << PlanTreeToString(**plan);
  for (const ProjectItem& item : project.items) {
    EXPECT_EQ(item.expr->kind(), ScalarKind::kColumn);
  }
  ASSERT_EQ(project.children[0]->kind, PhysOpKind::kFilter);
  ASSERT_EQ(project.children[0]->children[0]->kind, PhysOpKind::kTableScan);

  uint64_t before = g_new_bytes.load();
  auto got = ExecutePlan(**plan, engine_);
  uint64_t bytes = g_new_bytes.load() - before;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  // Every i but the multiples of 10 passes a >= 0.
  EXPECT_EQ((*got)[0][0].int_value(), 4999950000LL - 499950000LL);
  EXPECT_LT(static_cast<double>(bytes) / kRows, 24.0)
      << bytes << " bytes allocated for " << kRows << " rows";
}

}  // namespace
}  // namespace pdw
