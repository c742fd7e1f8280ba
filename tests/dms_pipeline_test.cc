// Placement and concurrency coverage of the streaming columnar DMS
// pipeline: for every move kind, the pipeline must land exactly the rows
// the move's definition places on each slot (same slots, same (source, row)
// order), with rows_moved equal to the rows read and per-component metrics
// populated — including empty inputs, single-row sources, one-row batches,
// variant columns, and concurrent sessions hammering one appliance.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/thread_pool.h"
#include "dms/dms_service.h"
#include "dms/wire_format.h"
#include "test_util.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

constexpr int kNodes = 4;

std::vector<Datum> DatumPool() {
  return {Datum::Int(7),
          Datum::Int(-3),
          Datum::Int(1LL << 40),
          Datum::Double(0.5),
          Datum::Double(16.0),
          Datum::Varchar(""),
          Datum::Varchar("abc"),
          Datum::Varchar(std::string(200, 'z')),
          Datum::Bool(false),
          Datum::Bool(true),
          Datum::Date(12345),
          Datum::Null()};
}

std::vector<RowVector> RandomSlots(uint32_t seed, int rows_per_node,
                                   size_t arity, bool include_control) {
  std::mt19937 rng(seed);
  const std::vector<Datum> pool = DatumPool();
  std::vector<RowVector> slots(static_cast<size_t>(kNodes + 1));
  int limit = include_control ? kNodes + 1 : kNodes;
  for (int n = 0; n < limit; ++n) {
    for (int r = 0; r < rows_per_node; ++r) {
      Row row;
      // Column 0 stays a non-null routing-friendly key.
      row.push_back(Datum::Int(static_cast<int64_t>(rng() % 1000)));
      for (size_t c = 1; c < arity; ++c) {
        row.push_back(pool[rng() % pool.size()]);
      }
      slots[static_cast<size_t>(n)].push_back(std::move(row));
    }
  }
  return slots;
}

const DmsOpKind kAllKinds[] = {
    DmsOpKind::kShuffle,        DmsOpKind::kPartitionMove,
    DmsOpKind::kControlNodeMove, DmsOpKind::kBroadcastMove,
    DmsOpKind::kTrimMove,        DmsOpKind::kReplicatedBroadcast,
    DmsOpKind::kRemoteCopyToSingle,
};

std::vector<RowVector> SlotsFor(DmsOpKind kind, uint32_t seed, int rows) {
  switch (kind) {
    case DmsOpKind::kControlNodeMove: {
      // Source is the control node only.
      std::vector<RowVector> slots(static_cast<size_t>(kNodes + 1));
      auto all = RandomSlots(seed, rows, 4, false);
      slots[kNodes] = std::move(all[0]);
      return slots;
    }
    case DmsOpKind::kReplicatedBroadcast: {
      // One replica copy is read, from node 0.
      std::vector<RowVector> slots(static_cast<size_t>(kNodes + 1));
      auto all = RandomSlots(seed, rows, 4, false);
      slots[0] = std::move(all[0]);
      return slots;
    }
    default:
      return RandomSlots(seed, rows, 4, false);
  }
}

void ExpectSlotsIdentical(const std::vector<RowVector>& a,
                          const std::vector<RowVector>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "slot " << s;
    for (size_t r = 0; r < a[s].size(); ++r) {
      ASSERT_EQ(a[s][r].size(), b[s][r].size()) << "slot " << s << " row " << r;
      for (size_t c = 0; c < a[s][r].size(); ++c) {
        EXPECT_EQ(a[s][r][c].is_null(), b[s][r][c].is_null())
            << "slot " << s << " row " << r << " col " << c;
        if (!a[s][r][c].is_null()) {
          EXPECT_EQ(a[s][r][c].type(), b[s][r][c].type())
              << "slot " << s << " row " << r << " col " << c;
          EXPECT_EQ(a[s][r][c].Compare(b[s][r][c]), 0)
              << "slot " << s << " row " << r << " col " << c;
        }
      }
    }
  }
}

/// The placement oracle: each slot's expected rows straight from the
/// move's definition, in (source, row) order. Shuffle sends a row to its
/// TargetNode; PartitionMove and RemoteCopyToSingle send it to the control
/// node; ControlNodeMove, BroadcastMove and ReplicatedBroadcast send it to
/// every compute node; Trim keeps it only on the compute node whose hash
/// slice it is, and only if that node is its source. `rows_moved` is every
/// source row read.
std::vector<RowVector> ExpectedPlacement(const DmsService& dms, DmsOpKind kind,
                                         const std::vector<RowVector>& sources,
                                         const std::vector<int>& ordinals,
                                         double* rows_moved) {
  const int n = dms.num_compute_nodes();
  std::vector<RowVector> slots(static_cast<size_t>(n + 1));
  *rows_moved = 0;
  for (int src = 0; src <= n; ++src) {
    for (const Row& row : sources[static_cast<size_t>(src)]) {
      *rows_moved += 1;
      switch (kind) {
        case DmsOpKind::kShuffle:
          slots[static_cast<size_t>(dms.TargetNode(row, ordinals))].push_back(
              row);
          break;
        case DmsOpKind::kPartitionMove:
        case DmsOpKind::kRemoteCopyToSingle:
          slots[static_cast<size_t>(dms.control_node())].push_back(row);
          break;
        case DmsOpKind::kControlNodeMove:
        case DmsOpKind::kBroadcastMove:
        case DmsOpKind::kReplicatedBroadcast:
          for (int dst = 0; dst < n; ++dst) {
            slots[static_cast<size_t>(dst)].push_back(row);
          }
          break;
        case DmsOpKind::kTrimMove:
          if (src < n && dms.TargetNode(row, ordinals) == src) {
            slots[static_cast<size_t>(src)].push_back(row);
          }
          break;
      }
    }
  }
  return slots;
}

class DmsPipelineTest : public ::testing::Test {
 protected:
  DmsService dms_{kNodes};

  /// Moves `sources` through the pipeline and compares every slot, in
  /// order, and rows_moved against the placement oracle.
  void ExpectPlacement(DmsOpKind kind, std::vector<RowVector> sources,
                       int batch_size, ThreadPool* pool) {
    std::vector<int> ordinals = {0};
    double expected_moved = 0;
    std::vector<RowVector> expected =
        ExpectedPlacement(dms_, kind, sources, ordinals, &expected_moved);
    DmsRunMetrics m;
    DmsExecOptions opts;
    opts.batch_size = batch_size;
    auto out = dms_.Execute(kind, std::move(sources), ordinals, &m, pool, opts);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSlotsIdentical(expected, *out);
    EXPECT_EQ(m.rows_moved, expected_moved) << DmsOpKindToString(kind);
    if (expected_moved > 0) {
      // Every component must stay metered on the pipelined path.
      EXPECT_GT(m.reader.bytes, 0) << DmsOpKindToString(kind);
      EXPECT_GT(m.writer.bytes, 0) << DmsOpKindToString(kind);
      EXPECT_GT(m.bulkcopy.bytes, 0) << DmsOpKindToString(kind);
      if (kind != DmsOpKind::kTrimMove) {
        EXPECT_GT(m.network.bytes, 0) << DmsOpKindToString(kind);
      } else {
        EXPECT_EQ(m.network.bytes, 0);  // trim never crosses the wire
      }
    }
  }

};

TEST_F(DmsPipelineTest, AllKindsMatchPlacementOracleSerial) {
  uint32_t seed = 100;
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, SlotsFor(kind, seed++, 300), 0, nullptr);
  }
}

TEST_F(DmsPipelineTest, AllKindsMatchPlacementOraclePooled) {
  uint32_t seed = 200;
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, SlotsFor(kind, seed++, 300), 0,
                    &ThreadPool::Global());
  }
}

TEST_F(DmsPipelineTest, SingleRowBatchesMatch) {
  // DMS wire batch_size=1: one wire message per row.
  uint32_t seed = 300;
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, SlotsFor(kind, seed++, 17), 1,
                    &ThreadPool::Global());
  }
}

TEST_F(DmsPipelineTest, EmptyInputsMatch) {
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, SlotsFor(kind, 400, 0), 0, nullptr);
    ExpectPlacement(kind, SlotsFor(kind, 401, 0), 0, &ThreadPool::Global());
  }
}

TEST_F(DmsPipelineTest, SingleRowSourcesMatch) {
  uint32_t seed = 500;
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, SlotsFor(kind, seed++, 1), 0, nullptr);
  }
}

TEST_F(DmsPipelineTest, SendersDeliverTheirOwnBatches) {
  // Each source's sender delivers every batch into its destination itself,
  // so a pooled shuffle runs one task per source — the caller takes one of
  // them — and no destination task waits for messages.
  std::vector<RowVector> sources = SlotsFor(DmsOpKind::kShuffle, 9, 200);
  int num_sources = 0;
  for (const RowVector& rows : sources) num_sources += rows.empty() ? 0 : 1;
  ASSERT_EQ(num_sources, kNodes);
  uint64_t before = testing::IdlePoolTasksExecuted();
  ExpectPlacement(DmsOpKind::kShuffle, std::move(sources), 1,
                  &ThreadPool::Global());
  uint64_t after = testing::IdlePoolTasksExecuted();
  EXPECT_LT(after - before, static_cast<uint64_t>(num_sources));
}

TEST_F(DmsPipelineTest, VariantColumnsSurviveTheWire) {
  // A column mixing INT and DOUBLE travels as a variant column; the wire
  // format's per-Datum escape hatch must round-trip it exactly, types
  // included, under every move kind.
  std::vector<RowVector> slots(static_cast<size_t>(kNodes + 1));
  for (int n = 0; n < kNodes; ++n) {
    for (int i = 0; i < 50; ++i) {
      slots[static_cast<size_t>(n)].push_back(
          {Datum::Int(i), i % 2 == 0 ? Datum::Int(i * 10)
                                     : Datum::Double(i * 0.25)});
    }
  }
  for (DmsOpKind kind : kAllKinds) {
    ExpectPlacement(kind, slots, 0, &ThreadPool::Global());
  }
}

TEST_F(DmsPipelineTest, ProducerErrorPropagates) {
  std::vector<DmsProducer> producers(static_cast<size_t>(kNodes + 1));
  producers[0] = []() -> Result<RowVector> {
    return RowVector{{Datum::Int(1)}};
  };
  producers[1] = []() -> Result<RowVector> {
    return Status::ExecutionError("node 1 exploded");
  };
  auto out = dms_.ExecutePipelined(DmsOpKind::kShuffle, std::move(producers),
                                   {0}, nullptr, &ThreadPool::Global());
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("node 1 exploded"), std::string::npos);
}

// --- appliance level: whole queries against the single-node reference ---

std::unique_ptr<Appliance> MakeLoadedAppliance(int nodes, double scale) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = scale;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

const char* kDmsQueries[] = {
    // Shuffle: group-by on a non-distribution column.
    "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s FROM orders "
    "GROUP BY o_custkey",
    // Shuffle + join.
    "SELECT c_name, o_totalprice FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_totalprice > 150000",
    // Broadcast-heavy join.
    "SELECT s_name, n_name FROM supplier, nation "
    "WHERE s_nationkey = n_nationkey",
    // Aggregation needing a final control-node move.
    "SELECT COUNT(*) AS c FROM lineitem, orders WHERE l_orderkey = o_orderkey",
};

TEST(DmsPipelineApplianceTest, QueriesMatchReference) {
  auto appliance = MakeLoadedAppliance(4, 0.05);
  Session session = appliance->Connect();
  for (const char* sql : kDmsQueries) {
    auto r = session.Run(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    auto ref = appliance->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(RowSetsEqual(r->rows, ref->rows)) << sql;
  }
}

TEST(DmsPipelineApplianceTest, PipelinedStepProfileStaysPopulated) {
  // EXPLAIN ANALYZE and λ calibration read per-component DMS metrics; the
  // pipelined path must keep them flowing into the step profile.
  auto appliance = MakeLoadedAppliance(4, 0.05);
  Session session = appliance->Connect();
  auto r = session.Run(
      "SELECT o_custkey, COUNT(*) AS c FROM orders GROUP BY o_custkey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_dms = false;
  for (const obs::StepProfile& sp : r->profile.steps) {
    if (sp.kind != "DMS") continue;
    saw_dms = true;
    EXPECT_GT(sp.reader.bytes, 0);
    EXPECT_GT(sp.writer.bytes, 0);
    EXPECT_GT(sp.bulkcopy.bytes, 0);
    EXPECT_GT(sp.rows_moved, 0);
    EXPECT_FALSE(sp.node_seconds.empty());
  }
  EXPECT_TRUE(saw_dms);
  EXPECT_GT(r->dms_metrics.wall_seconds, 0);
}

// --- concurrent sessions over the pipelined DMS (the TSan storm) ---

TEST(DmsPipelineConcurrencyTest, ConcurrentSessionsOverPipelinedDms) {
  auto appliance = MakeLoadedAppliance(4, 0.03);
  Session session = appliance->Connect();
  constexpr int kThreads = 8;
  constexpr int kReps = 3;

  std::vector<RowVector> expected;
  for (const char* sql : kDmsQueries) {
    auto ref = appliance->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok());
    expected.push_back(ref->rows);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        size_t qi = static_cast<size_t>(t + rep) %
                    (sizeof(kDmsQueries) / sizeof(kDmsQueries[0]));
        auto r = session.Run(kDmsQueries[qi]);
        if (!r.ok() || !RowSetsEqual(r->rows, expected[qi])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace pdw
