// Partial-aggregate pushdown (PR 9): plan-shape expectations, cost-based
// decline, duplicate-sensitivity gates, AVG oracle regression, the
// preagg on/off differential sweep, DMS byte savings, observability
// surfaces, and plan-cache fingerprinting.
//
// The fixture is a purpose-built dim/fact schema rather than TPC-H: at
// the small scales the tests load, TPC-H dimension tables are so small
// that broadcasting them is nearly free and pushdown never pays off. Here
// `dim` is wide enough that broadcasting it is expensive, `fact` is
// distributed on a non-join column (so the join always forces movement),
// and fact's join key has only 50 distinct values against 12000 rows —
// the high-reduction regime the pushdown targets. Grouping by the unique
// column `f_uniq` instead gives the adversarial near-unique case the
// cost model must decline. PreaggCostTest loads TPC-H at scale 0.2, where
// Q10's plan carries a pre-aggregation cost term.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "appliance/appliance.h"
#include "common/row.h"
#include "pdw/compiler.h"
#include "pdw/plan_cache.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

constexpr int kDimRows = 8000;
constexpr int kFactRows = 12000;

// 50 matched join-key values, plus NULL keys (every 97th row) and keys
// with no dim match (every 101st row): partial groups for those must be
// dropped by the join, not leak into results.
int64_t FactKey(int i) { return (i % 101 == 0) ? 9000 + i % 10 : i % 50; }

const char* kHighReduction =
    "SELECT d_grp, SUM(f_val) AS s, COUNT(f_val) AS c "
    "FROM fact, dim WHERE f_key = d_key GROUP BY d_grp";
const char* kNearUnique =
    "SELECT f_uniq, SUM(f_val) AS s "
    "FROM fact, dim WHERE f_key = d_key GROUP BY f_uniq";
const char* kAvgQuery =
    "SELECT d_grp, AVG(f_val) AS a, COUNT(f_val) AS c "
    "FROM fact, dim WHERE f_key = d_key GROUP BY d_grp";
const char* kDistinctAgg =
    "SELECT d_grp, COUNT(DISTINCT f_grp) AS c "
    "FROM fact, dim WHERE f_key = d_key GROUP BY d_grp";
const char* kScalarAgg =
    "SELECT SUM(f_val) AS s, COUNT(*) AS c "
    "FROM fact, dim WHERE f_key = d_key";

PdwCompilerOptions Opts(int preagg) {
  PdwCompilerOptions o;
  o.pdw.enable_preagg = preagg;
  return o;
}

class PreaggTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{8});
    ASSERT_TRUE(appliance_
                    ->CreateTableSql(
                        "CREATE TABLE dim (d_key INT NOT NULL, d_grp INT, "
                        "d_name VARCHAR(16)) "
                        "WITH (DISTRIBUTION = HASH(d_key))")
                    .ok());
    ASSERT_TRUE(appliance_
                    ->CreateTableSql(
                        "CREATE TABLE fact (f_key INT, f_grp INT, "
                        "f_val DOUBLE, f_uniq INT) "
                        "WITH (DISTRIBUTION = HASH(f_uniq))")
                    .ok());
    RowVector dim;
    dim.reserve(kDimRows);
    for (int i = 0; i < kDimRows; ++i) {
      dim.push_back({Datum::Int(i), Datum::Int(i % 10),
                     Datum::Varchar("d" + std::to_string(i % 16))});
    }
    ASSERT_TRUE(appliance_->LoadRows("dim", dim).ok());
    RowVector fact;
    fact.reserve(kFactRows);
    for (int i = 0; i < kFactRows; ++i) {
      // Integer-valued doubles: SUM/AVG are exact in any addition order,
      // so every plan shape must agree byte-for-byte.
      Datum key = (i % 97 == 0) ? Datum::Null() : Datum::Int(FactKey(i));
      Datum val = (i % 23 == 0) ? Datum::Null() : Datum::Double(i % 90);
      fact.push_back(
          {key, Datum::Int(i % 7), val, Datum::Int(i)});
    }
    ASSERT_TRUE(appliance_->LoadRows("fact", fact).ok());
  }

  static void TearDownTestSuite() {
    delete appliance_;
    appliance_ = nullptr;
  }

  static RowVector Reference(const std::string& sql) {
    auto ref = appliance_->ExecuteReference(sql);
    EXPECT_TRUE(ref.ok()) << ref.status().message();
    return ref.ok() ? ref->rows : RowVector{};
  }

  static Appliance* appliance_;
};

Appliance* PreaggTest::appliance_ = nullptr;

TEST_F(PreaggTest, ChosenOnHighReductionGroups) {
  auto on = CompilePdwQuery(appliance_->shell(), kHighReduction, Opts(1));
  ASSERT_TRUE(on.ok()) << on.status().message();
  EXPECT_GT(on->parallel.preagg_considered, 0u);
  EXPECT_GT(on->parallel.preagg_kept, 0u);
  EXPECT_TRUE(on->parallel.preagg_chosen);

  auto off = CompilePdwQuery(appliance_->shell(), kHighReduction, Opts(0));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->parallel.preagg_considered, 0u);
  EXPECT_FALSE(off->parallel.preagg_chosen);
  // Pushdown was chosen because it is strictly cheaper, not by fiat.
  EXPECT_LT(on->parallel.cost, off->parallel.cost);

  // Default options consider the pushdown too.
  auto defaults = CompilePdwQuery(appliance_->shell(), kHighReduction,
                                  PdwCompilerOptions{});
  ASSERT_TRUE(defaults.ok());
  EXPECT_GT(defaults->parallel.preagg_considered, 0u);
  EXPECT_TRUE(defaults->parallel.preagg_chosen);
}

TEST_F(PreaggTest, DeclinedOnNearUniqueGroups) {
  // Grouping by the unique column gives no reduction; the lambda_preagg
  // CPU charge makes the pushed variant strictly worse and the cost
  // model must keep the plain plan — same cost as disabling the rewrite.
  auto on = CompilePdwQuery(appliance_->shell(), kNearUnique, Opts(1));
  ASSERT_TRUE(on.ok());
  EXPECT_GT(on->parallel.preagg_considered, 0u);
  EXPECT_FALSE(on->parallel.preagg_chosen);

  auto off = CompilePdwQuery(appliance_->shell(), kNearUnique, Opts(0));
  ASSERT_TRUE(off.ok());
  EXPECT_DOUBLE_EQ(on->parallel.cost, off->parallel.cost);
}

TEST_F(PreaggTest, DistinctAggregateRefusesPushdown) {
  // COUNT(DISTINCT x) is duplicate-sensitive in a way no partial phase
  // below the join can repair: the gate must fire before enumeration.
  auto on = CompilePdwQuery(appliance_->shell(), kDistinctAgg, Opts(1));
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->parallel.preagg_considered, 0u);
  EXPECT_FALSE(on->parallel.preagg_chosen);
}

TEST_F(PreaggTest, ScalarAggregateRefusesPushdown) {
  // Empty GROUP BY: no grouping keys to intersect with either side, and
  // the single global group gains nothing from a partial phase.
  auto on = CompilePdwQuery(appliance_->shell(), kScalarAgg, Opts(1));
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->parallel.preagg_considered, 0u);
  EXPECT_FALSE(on->parallel.preagg_chosen);
}

TEST_F(PreaggTest, AvgMatchesRowOracleOverBothPlanShapes) {
  // AVG is pre-split into SUM/COUNT by the binder, so pushdown applies;
  // both the pushed and the classic two-phase plan must agree with the
  // single-node reference.
  auto on = CompilePdwQuery(appliance_->shell(), kAvgQuery, Opts(1));
  ASSERT_TRUE(on.ok()) << on.status().message();
  EXPECT_TRUE(on->parallel.preagg_chosen);

  RowVector ref = Reference(kAvgQuery);
  Session session = appliance_->Connect();
  for (int preagg : {0, 1}) {
    auto got = session.Run(
        kAvgQuery, QueryOptions().WithCompilerOptions(Opts(preagg)));
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_TRUE(RowSetsEqual(got->rows, ref)) << "preagg=" << preagg;
  }
}

TEST_F(PreaggTest, PushdownSweepIsByteIdentical) {
  // Every query x preagg on/off must agree with the reference oracle —
  // including the shapes that refuse pushdown.
  const char* queries[] = {kHighReduction, kNearUnique, kAvgQuery,
                           kDistinctAgg, kScalarAgg};
  Session session = appliance_->Connect();
  for (const char* sql : queries) {
    RowVector ref = Reference(sql);
    for (int preagg : {0, 1}) {
      auto got =
          session.Run(sql, QueryOptions().WithCompilerOptions(Opts(preagg)));
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_TRUE(RowSetsEqual(got->rows, ref))
          << sql << "\npreagg=" << preagg;
    }
  }
}

TEST_F(PreaggTest, PushdownShrinksDmsBytes) {
  Session session = appliance_->Connect();
  auto on = session.Run(kHighReduction, QueryOptions()
                                            .WithCompilerOptions(Opts(1))
                                            .WithPlanCache(false)
                                            .WithOperatorActuals());
  ASSERT_TRUE(on.ok()) << on.status().message();
  auto off = session.Run(kHighReduction, QueryOptions()
                                             .WithCompilerOptions(Opts(0))
                                             .WithPlanCache(false));
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(RowSetsEqual(on->rows, off->rows));

  double bytes_on =
      on->dms_metrics.network.bytes + on->dms_metrics.bulkcopy.bytes;
  double bytes_off =
      off->dms_metrics.network.bytes + off->dms_metrics.bulkcopy.bytes;
  // The partial collapses 12000 join-input rows to <= 8 * 50 per phase;
  // anything below 5x savings means the pushed plan didn't execute.
  EXPECT_LT(bytes_on * 5, bytes_off);

  // Observability: the pushed step is flagged in the profile with its
  // actual input rows, and surfaces in EXPLAIN ANALYZE text + JSON.
  bool found = false;
  for (const auto& step : on->profile.steps) {
    if (!step.preagg) continue;
    found = true;
    EXPECT_GT(step.preagg_rows_in, 0.0);
    EXPECT_GT(step.preagg_rows_in_actual, 0.0);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(on->explain_text.find("preagg:"), std::string::npos);
  EXPECT_NE(on->profile.ToJson().find("\"preagg\""), std::string::npos);
}

TEST_F(PreaggTest, FingerprintAndPlanCacheSeparatePreaggPlans) {
  EXPECT_NE(FingerprintCompilerOptions(Opts(1)),
            FingerprintCompilerOptions(Opts(0)));

  // Distinct statement text so earlier tests cannot have primed entries.
  const char* sql =
      "SELECT d_grp, SUM(f_val) AS s FROM fact, dim "
      "WHERE f_key = d_key AND d_grp >= 0 GROUP BY d_grp";
  Session session = appliance_->Connect();
  auto first = session.Run(sql, QueryOptions().WithCompilerOptions(Opts(1)));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto again = session.Run(sql, QueryOptions().WithCompilerOptions(Opts(1)));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  // Flipping the knob changes the fingerprint: no stale pushed plan.
  auto other = session.Run(sql, QueryOptions().WithCompilerOptions(Opts(0)));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);
  EXPECT_TRUE(RowSetsEqual(other->rows, again->rows));
}

// One executed query reports one modeled cost: the optimizer's objective,
// pre-aggregation CPU term included, in the result, the profile, the
// EXPLAIN ANALYZE header and its total line.
TEST(PreaggCostTest, ExplainAnalyzeReportsOneModeledCost) {
  Appliance appliance(Topology{8});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.2;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  const tpch::TpchQuery* q10 = tpch::FindQuery("Q10");
  ASSERT_NE(q10, nullptr);
  auto r = appliance.Run(q10->sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->modeled_cost, r->profile.modeled_cost);
  const std::string& text = r->explain_text;
  auto number_after = [&](const std::string& marker) {
    size_t at = text.find(marker);
    EXPECT_NE(at, std::string::npos) << marker << "\n" << text;
    if (at == std::string::npos) return std::string();
    size_t start = at + marker.size();
    return text.substr(start, text.find_first_of(" )", start) - start);
  };
  EXPECT_EQ(number_after("modeled DMS cost "),
            number_after("total: modeled cost "))
      << text;
}

}  // namespace
}  // namespace pdw
