// Plan-shape goldens: the 12 TPC-H suite queries on 8 nodes at scales 0.2
// and 1, pinned step by step. An estimator or cost-model change that moves
// a plan, its bytes or its estimates fails here deterministically instead
// of being found by hand in a benchmark.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "appliance/appliance.h"
#include "pdw/compiler.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

/// One DSQL step of one suite query at one scale.
struct GoldenStep {
  const char* query;
  double scale;
  const char* kind;       ///< StepProfile::kind.
  const char* move_kind;  ///< StepProfile::move_kind ("" for RETURN).
  double network_bytes;   ///< StepProfile::network.bytes, exact.
  double actual_rows;     ///< StepProfile::actual_rows, exact.
  double estimated_rows;  ///< StepProfile::estimated_rows, to 1e-9.
};

// Produced by this test: on a mismatch it prints every step of the query
// as a literal row ("actual:" lines). After an intended plan change, check
// the new bytes and estimates against the old ones, then paste the rows.
const GoldenStep kGolden[] = {
    {"Q1", 0.2, "DMS", "SHUFFLE_MOVE", 3108, 48, 384},
    {"Q1", 0.2, "RETURN", "", 0, 6, 48},
    {"Q2", 0.2, "RETURN", "", 0, 7, 0.010897317802989036},
    {"Q3", 0.2, "DMS", "BROADCAST_MOVE", 8820, 59, 21.213203435596427},
    {"Q3", 0.2, "DMS", "PARTITION_MOVE", 2352, 80, 80},
    {"Q3", 0.2, "RETURN", "", 0, 10, 10},
    {"Q4", 0.2, "DMS", "SHUFFLE_MOVE", 827, 36, 113.13708498984761},
    {"Q4", 0.2, "RETURN", "", 0, 5, 14.142135623730951},
    {"Q5", 0.2, "DMS", "BROADCAST_MOVE", 29771, 71, 26.291524102480945},
    {"Q5", 0.2, "DMS", "SHUFFLE_MOVE", 286, 10, 2.2725877613043766},
    {"Q5", 0.2, "RETURN", "", 0, 2, 2.2725877613043766},
    {"Q6", 0.2, "DMS", "PARTITION_MOVE", 128, 8, 8},
    {"Q6", 0.2, "RETURN", "", 0, 1, 1},
    {"Q10", 0.2, "DMS", "SHUFFLE_MOVE", 1404, 80, 307.56871196988584},
    {"Q10", 0.2, "DMS", "PARTITION_MOVE", 5488, 72, 65.348087265688449},
    {"Q10", 0.2, "RETURN", "", 0, 20, 20},
    {"Q12", 0.2, "DMS", "SHUFFLE_MOVE", 504, 16, 41.140591411434364},
    {"Q12", 0.2, "RETURN", "", 0, 2, 19.798989873223331},
    {"Q14", 0.2, "DMS", "BROADCAST_MOVE", 73318, 400, 400},
    {"Q14", 0.2, "DMS", "PARTITION_MOVE", 208, 8, 8},
    {"Q14", 0.2, "RETURN", "", 0, 1, 1},
    {"Q17", 0.2, "DMS", "SHUFFLE_MOVE", 66168, 3115, 8873.9619111195207},
    {"Q17", 0.2, "DMS", "BROADCAST_MOVE", 12838, 44, 20},
    {"Q17", 0.2, "DMS", "PARTITION_MOVE", 128, 8, 8},
    {"Q17", 0.2, "RETURN", "", 0, 1, 1},
    {"Q18", 0.2, "DMS", "BROADCAST_MOVE", 63560, 300, 300},
    {"Q18", 0.2, "DMS", "SHUFFLE_MOVE", 0, 652, 1000},
    {"Q18", 0.2, "DMS", "PARTITION_MOVE", 37960, 652, 800},
    {"Q18", 0.2, "RETURN", "", 0, 100, 100},
    {"Q20", 0.2, "DMS", "SHUFFLE_MOVE", 38448, 1780, 3780.9359331018354},
    {"Q20", 0.2, "DMS", "SHUFFLE_MOVE", 0, 40, 20},
    {"Q20", 0.2, "DMS", "SHUFFLE_MOVE", 352, 28, 1.6068135604252149},
    {"Q20", 0.2, "RETURN", "", 0, 1, 0.022723775293583395},
    {"Q1", 1, "DMS", "SHUFFLE_MOVE", 3108, 48, 384},
    {"Q1", 1, "RETURN", "", 0, 6, 48},
    {"Q2", 1, "RETURN", "", 0, 41, 0.011877133078851279},
    {"Q3", 1, "DMS", "BROADCAST_MOVE", 43960, 310, 106.06601717798213},
    {"Q3", 1, "DMS", "PARTITION_MOVE", 2352, 80, 80},
    {"Q3", 1, "RETURN", "", 0, 10, 10},
    {"Q4", 1, "DMS", "SHUFFLE_MOVE", 924, 40, 113.13708498984761},
    {"Q4", 1, "RETURN", "", 0, 5, 14.142135623730951},
    {"Q5", 1, "DMS", "BROADCAST_MOVE", 128807, 317, 106.06601717798215},
    {"Q5", 1, "DMS", "SHUFFLE_MOVE", 657, 28, 9.1895434931162026},
    {"Q5", 1, "RETURN", "", 0, 5, 9.1895434931162026},
    {"Q6", 1, "DMS", "PARTITION_MOVE", 128, 8, 8},
    {"Q6", 1, "RETURN", "", 0, 1, 1},
    {"Q10", 1, "DMS", "SHUFFLE_MOVE", 6480, 418, 1559.2832981406996},
    {"Q10", 1, "DMS", "PARTITION_MOVE", 12037, 160, 160},
    {"Q10", 1, "RETURN", "", 0, 20, 20},
    {"Q12", 1, "DMS", "SHUFFLE_MOVE", 504, 16, 158.39191898578665},
    {"Q12", 1, "RETURN", "", 0, 2, 19.798989873223331},
    {"Q14", 1, "DMS", "BROADCAST_MOVE", 366716, 2000, 2000},
    {"Q14", 1, "DMS", "PARTITION_MOVE", 208, 8, 8},
    {"Q14", 1, "RETURN", "", 0, 1, 1},
    {"Q17", 1, "DMS", "SHUFFLE_MOVE", 328488, 15607, 44302.780048209162},
    {"Q17", 1, "DMS", "BROADCAST_MOVE", 53935, 194, 100},
    {"Q17", 1, "DMS", "PARTITION_MOVE", 128, 8, 8},
    {"Q17", 1, "RETURN", "", 0, 1, 1},
    {"Q18", 1, "DMS", "BROADCAST_MOVE", 315560, 1500, 1500},
    {"Q18", 1, "DMS", "SHUFFLE_MOVE", 0, 3295, 5000},
    {"Q18", 1, "DMS", "PARTITION_MOVE", 46544, 800, 800},
    {"Q18", 1, "RETURN", "", 0, 100, 100},
    {"Q20", 1, "DMS", "SHUFFLE_MOVE", 192672, 9083, 19000.340653104508},
    {"Q20", 1, "DMS", "SHUFFLE_MOVE", 0, 199, 100},
    {"Q20", 1, "DMS", "SHUFFLE_MOVE", 504, 40, 1.6173877071725928},
    {"Q20", 1, "RETURN", "", 0, 2, 0.022873316310990047},
};

class PlanGoldenTest : public ::testing::Test {
 protected:
  /// A loaded 8-node TPC-H appliance per scale, shared by the tests of one
  /// process.
  static Appliance* AtScale(double scale) {
    static std::map<double, std::unique_ptr<Appliance>> appliances;
    std::unique_ptr<Appliance>& a = appliances[scale];
    if (a == nullptr) {
      a = std::make_unique<Appliance>(Topology{8});
      EXPECT_TRUE(tpch::CreateTpchTables(a.get()).ok());
      tpch::TpchConfig cfg;
      cfg.scale = scale;
      EXPECT_TRUE(tpch::LoadTpch(a.get(), cfg).ok());
    }
    return a.get();
  }

  /// Runs `sql` and checks its rows against the single-node reference.
  static ApplianceResult RunMatched(Appliance* a, const std::string& sql,
                                    const QueryOptions& options = {}) {
    auto dist = a->Run(sql, options);
    EXPECT_TRUE(dist.ok()) << dist.status().ToString();
    if (!dist.ok()) return {};
    auto ref = a->ExecuteReference(sql);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (ref.ok()) {
      EXPECT_TRUE(RowSetsEqual(dist->rows, ref->rows));
    }
    return std::move(dist).ValueOrDie();
  }

  static constexpr double kScales[] = {0.2, 1};
};

TEST_F(PlanGoldenTest, SuiteStepsMatchGolden) {
  for (double scale : kScales) {
    Appliance* a = AtScale(scale);
    for (const tpch::TpchQuery& q : tpch::Queries()) {
      SCOPED_TRACE(q.name + " at scale " + std::to_string(scale));
      ApplianceResult r = RunMatched(a, q.sql);
      std::vector<const GoldenStep*> golden;
      for (const GoldenStep& g : kGolden) {
        if (g.query == q.name && g.scale == scale) golden.push_back(&g);
      }
      bool same = golden.size() == r.profile.steps.size();
      for (size_t i = 0; same && i < golden.size(); ++i) {
        const GoldenStep& g = *golden[i];
        const obs::StepProfile& s = r.profile.steps[i];
        same = s.kind == g.kind && s.move_kind == g.move_kind &&
               s.network.bytes == g.network_bytes &&
               s.actual_rows == g.actual_rows &&
               std::abs(s.estimated_rows - g.estimated_rows) <=
                   1e-9 * std::max(1.0, std::abs(g.estimated_rows));
      }
      if (same) continue;
      std::string actual;
      for (const obs::StepProfile& s : r.profile.steps) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "actual: {\"%s\", %g, \"%s\", \"%s\", %.17g, %.17g, "
                      "%.17g},\n",
                      q.name.c_str(), scale, s.kind.c_str(),
                      s.move_kind.c_str(), s.network.bytes, s.actual_rows,
                      s.estimated_rows);
        actual += line;
      }
      ADD_FAILURE() << "steps differ from the golden table\n" << actual;
    }
  }
}

// Q5's plan cliff: with the closure-derived join conjunct counted twice,
// its one compute step joined the broadcast customers to suppliers by
// nation and then to all of lineitem, emitting 36,425 rows at scale 0.2
// and 763,880 at scale 1. No operator of a sane suite plan emits more rows
// than the largest table holds.
TEST_F(PlanGoldenTest, NoOperatorExceedsLineitem) {
  const std::map<double, double> lineitem_rows = {{0.2, 11924}, {1, 59828}};
  for (double scale : kScales) {
    Appliance* a = AtScale(scale);
    auto count = a->ExecuteReference("SELECT COUNT(*) AS c FROM lineitem");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const double lineitem = lineitem_rows.at(scale);
    ASSERT_EQ(static_cast<double>(count->rows.at(0).at(0).int_value()),
              lineitem);
    for (const tpch::TpchQuery& q : tpch::Queries()) {
      SCOPED_TRACE(q.name + " at scale " + std::to_string(scale));
      ApplianceResult r = RunMatched(
          a, q.sql, QueryOptions().WithPlanCache(false).WithOperatorActuals());
      for (const obs::StepProfile& s : r.profile.steps) {
        for (const obs::OperatorProfile& op : s.operators) {
          EXPECT_LE(op.actual_rows, lineitem)
              << "step " << s.index << " operator " << op.name << "\n"
              << s.sql;
        }
      }
    }
  }
}

using PdwOptimizerTest = PlanGoldenTest;

// The PDW objective is the DMS cost alone: local work only ranks options
// whose cost is exactly equal, so the chosen plan always has the root's
// minimum cost, and among those minima the least local work.
TEST_F(PdwOptimizerTest, LocalWorkOnlyBreaksTies) {
  const Catalog& shell = AtScale(1)->shell();
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    auto compiled = CompilePdwQuery(shell, q.sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Memo* memo = compiled->serial.memo.get();
    PdwOptimizer optimizer(memo, shell.topology());
    auto result = optimizer.Optimize();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->cost, compiled->parallel.cost);
    EXPECT_EQ(result->local, compiled->parallel.local);

    const std::vector<PdwOption>& root = optimizer.group_options(memo->root());
    ASSERT_FALSE(root.empty());
    double min_cost = root[0].cost;
    for (const PdwOption& o : root) min_cost = std::min(min_cost, o.cost);
    EXPECT_EQ(result->cost, min_cost);
    double min_local = -1;
    for (const PdwOption& o : root) {
      if (o.cost != min_cost) continue;
      if (min_local < 0 || o.local < min_local) min_local = o.local;
    }
    EXPECT_EQ(result->local, min_local);
  }
}

}  // namespace
}  // namespace pdw
