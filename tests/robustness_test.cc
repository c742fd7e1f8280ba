#include <gtest/gtest.h>

#include <functional>

#include "appliance/appliance.h"
#include "pdw/baseline.h"
#include "pdw/compiler.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

// ---------------------------------------------------------------------------
// Failure injection: a node missing a table mid-plan must surface a clean
// error and leave no temp-table litter anywhere.
// ---------------------------------------------------------------------------

TEST(FailureInjectionTest, NodeMissingTableFailsCleanly) {
  Appliance appliance(Topology{4});
  Session session = appliance.Connect();
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());

  // Sabotage: drop orders on one compute node only.
  ASSERT_TRUE(appliance.mutable_compute_node(2).DropTable("orders").ok());

  auto r = session.Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("node 2"), std::string::npos)
      << r.status().ToString();

  // No temp tables may survive the failed execution.
  for (int n = 0; n < 4; ++n) {
    for (const std::string& t :
         appliance.compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos) << "node " << n;
    }
  }
  for (const std::string& t : appliance.control_engine().catalog().ListTables()) {
    EXPECT_EQ(t.find("TEMP_ID"), std::string::npos) << "control";
  }

  // The appliance stays usable for queries that avoid the damaged table.
  auto ok = session.Run("SELECT COUNT(*) AS c FROM customer");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(FailureInjectionTest, ReferenceEngineUnaffectedBySabotage) {
  Appliance appliance(Topology{2});
  ASSERT_TRUE(tpch::CreateTpchTables(&appliance).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  ASSERT_TRUE(tpch::LoadTpch(&appliance, cfg).ok());
  ASSERT_TRUE(appliance.mutable_compute_node(0).DropTable("lineitem").ok());
  // Reference execution holds its own copy of the data.
  auto ref = appliance.ExecuteReference("SELECT COUNT(*) AS c FROM lineitem");
  ASSERT_TRUE(ref.ok());
  EXPECT_GT(ref->rows[0][0].int_value(), 0);
}

// ---------------------------------------------------------------------------
// Plan validity invariants: every operator in every optimized plan must
// have distribution-compatible inputs, and every Move must transform its
// input's property into its annotated output property.
// ---------------------------------------------------------------------------

class PlanValidityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{8});
    session_ = new Session(appliance_->Connect());
    ASSERT_TRUE(tpch::CreateTpchTables(appliance_).ok());
    tpch::TpchConfig cfg;
    cfg.scale = 0.05;
    ASSERT_TRUE(tpch::LoadTpch(appliance_, cfg).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete appliance_;
    appliance_ = nullptr;
  }

  /// Checks structural distribution validity of a parallel plan.
  void ValidatePlan(const PlanNode& node, const ColumnEquivalence& equiv) {
    for (const auto& c : node.children) ValidatePlan(*c, equiv);
    switch (node.kind) {
      case PhysOpKind::kHashJoin:
      case PhysOpKind::kNestedLoopJoin: {
        const DistributionProperty& l = node.children[0]->distribution;
        const DistributionProperty& r = node.children[1]->distribution;
        bool l_dist = l.kind == DistributionKind::kDistributed;
        bool r_dist = r.kind == DistributionKind::kDistributed;
        bool ok = false;
        if (l.is_control() && r.is_control()) ok = true;
        if (l.is_replicated() && r.is_replicated()) ok = true;
        if (l_dist && r.is_replicated()) ok = true;
        if (l.is_replicated() && r_dist) {
          ok = node.join_type == LogicalJoinType::kInner ||
               node.join_type == LogicalJoinType::kCross;
        }
        if (l_dist && r_dist) {
          // Must be collocated on an equated key pair.
          for (const auto& [a, b] : node.equi_keys) {
            if (l.columns.size() == 1 && r.columns.size() == 1 &&
                equiv.Find(l.columns[0]) == equiv.Find(a) &&
                equiv.Find(r.columns[0]) == equiv.Find(b)) {
              ok = true;
            }
          }
        }
        EXPECT_TRUE(ok) << "incompatible join inputs: " << l.ToString()
                        << " vs " << r.ToString() << "\n"
                        << PlanTreeToString(node);
        break;
      }
      case PhysOpKind::kHashAggregate: {
        if (node.agg_phase != AggPhase::kFull) break;
        const DistributionProperty& c = node.children[0]->distribution;
        if (c.kind != DistributionKind::kDistributed) break;
        // Full aggregation over a distributed stream requires the hash
        // columns to be group-by columns (by class).
        for (ColumnId col : c.columns) {
          bool in_groups = false;
          for (ColumnId g : node.group_by) {
            if (equiv.AreEquivalent(col, g)) in_groups = true;
          }
          EXPECT_TRUE(in_groups || node.group_by.empty() == false)
              << "full aggregate over misdistributed input\n"
              << PlanTreeToString(node);
        }
        break;
      }
      case PhysOpKind::kMove: {
        // A move's annotated output must differ meaningfully from a no-op
        // and its kind must match the transition.
        const DistributionProperty& src = node.children[0]->distribution;
        switch (node.move_kind) {
          case DmsOpKind::kBroadcastMove:
            EXPECT_TRUE(node.distribution.is_replicated());
            EXPECT_EQ(src.kind, DistributionKind::kDistributed);
            break;
          case DmsOpKind::kTrimMove:
            EXPECT_TRUE(src.is_replicated());
            EXPECT_EQ(node.distribution.kind, DistributionKind::kDistributed);
            break;
          case DmsOpKind::kPartitionMove:
            EXPECT_TRUE(node.distribution.is_control());
            break;
          case DmsOpKind::kShuffle:
            EXPECT_EQ(node.distribution.kind, DistributionKind::kDistributed);
            EXPECT_FALSE(node.shuffle_columns.empty());
            break;
          default:
            break;
        }
        EXPECT_GE(node.move_cost, 0);
        break;
      }
      default:
        break;
    }
  }

  static Appliance* appliance_;
  static Session* session_;
};

Appliance* PlanValidityTest::appliance_ = nullptr;
Session* PlanValidityTest::session_ = nullptr;

TEST_F(PlanValidityTest, SuitePlansAreDistributionValid) {
  for (const auto& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    auto comp = CompilePdwQuery(appliance_->shell(), q.sql);
    ASSERT_TRUE(comp.ok()) << comp.status().ToString();
    PdwOptimizer opt_probe(comp->serial.memo.get(),
                           appliance_->shell().topology());
    ASSERT_TRUE(opt_probe.Optimize().ok());
    auto baseline = BuildSerialBaseline(comp->serial.memo.get(),
                                        appliance_->shell().topology());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ValidatePlan(*comp->parallel.plan, opt_probe.interesting().equivalence);
    ValidatePlan(*baseline->plan, opt_probe.interesting().equivalence);
  }
}

// ---------------------------------------------------------------------------
// DMS conservation invariants under execution.
// ---------------------------------------------------------------------------

TEST(DmsConservationTest, ShuffleConservesRowsAndBytes) {
  DmsService dms(4);
  std::vector<RowVector> slots(5);
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 100; ++i) {
      slots[static_cast<size_t>(n)].push_back(
          {Datum::Int(n * 100 + i), Datum::Varchar("payload")});
    }
  }
  DmsRunMetrics m;
  auto out = dms.Execute(DmsOpKind::kShuffle, std::move(slots), {0}, &m);
  ASSERT_TRUE(out.ok());
  size_t total = 0;
  for (const auto& s : *out) total += s.size();
  EXPECT_EQ(total, 400u);
  // Everything read is written: the buffers pass through unchanged.
  EXPECT_DOUBLE_EQ(m.reader.bytes, m.writer.bytes);
}

}  // namespace
}  // namespace pdw
