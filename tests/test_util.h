#ifndef PDW_TESTS_TEST_UTIL_H_
#define PDW_TESTS_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/local_engine.h"
#include "optimizer/serial_optimizer.h"

namespace pdw::testing {

/// One SELECT's rows from both local engines over the same plan.
struct EngineRows {
  Result<RowVector> batch;  ///< ExecutePlan, the production engine.
  Result<RowVector> row;    ///< ExecuteRowPlan, the reference oracle.
};

/// Compiles `sql` once against `engine`'s catalog and runs that one plan
/// on the batch engine and on the row oracle over `engine`'s tables. A
/// compile error is reported by both. Hidden ORDER BY carrier columns are
/// kept, identically in both.
inline EngineRows RunBothEngines(const LocalEngine& engine,
                                 const std::string& sql) {
  auto comp = CompileQuery(engine.catalog(), sql);
  if (!comp.ok()) return {comp.status(), comp.status()};
  auto plan = ExtractBestSerialPlan(comp->memo.get());
  if (!plan.ok()) return {plan.status(), plan.status()};
  return {ExecutePlan(**plan, engine), ExecuteRowPlan(**plan, engine)};
}

/// ThreadPool::Global().tasks_executed(), read once the pool is idle: no
/// queued task, no active worker, and the count steady across a short
/// pause (a helper that wakes after its ParallelFor returned still counts).
inline uint64_t IdlePoolTasksExecuted() {
  ThreadPool& pool = ThreadPool::Global();
  auto idle = [&] {
    return pool.queue_depth() == 0 && pool.active_workers() == 0;
  };
  for (;;) {
    uint64_t tasks = pool.tasks_executed();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (idle() && pool.tasks_executed() == tasks) return tasks;
  }
}

/// Builds a TPC-H-shaped shell catalog (metadata + synthetic global stats,
/// no rows) with the paper's distribution choices: customer hash(c_custkey),
/// orders hash(o_orderkey), lineitem hash(l_orderkey), part hash(p_partkey),
/// partsupp hash(ps_partkey), supplier replicated, nation/region replicated.
/// `scale` multiplies the row counts (1.0 ~ a miniature SF with
/// lineitem = 60k rows).
inline Catalog MakeTpchShellCatalog(double scale = 1.0, int nodes = 8) {
  Catalog catalog(Topology{nodes});

  auto add = [&](const std::string& name, std::vector<ColumnDef> cols,
                 DistributionSpec dist, std::vector<std::string> pk,
                 double rows, std::vector<double> ndvs) {
    TableDef def;
    def.name = name;
    def.schema = Schema(std::move(cols));
    def.distribution = std::move(dist);
    def.primary_key = std::move(pk);
    def.stats.row_count = rows;
    double width = 0;
    for (int i = 0; i < def.schema.num_columns(); ++i) {
      const ColumnDef& c = def.schema.column(i);
      ColumnStats cs;
      cs.row_count = rows;
      cs.distinct_count = ndvs[static_cast<size_t>(i)];
      cs.avg_width = DefaultTypeWidth(c.type);
      width += cs.avg_width;
      def.stats.columns[c.name] = cs;
    }
    def.stats.avg_row_width = width;
    Status s = catalog.CreateTable(std::move(def));
    (void)s;
  };

  double sf = scale;
  add("customer",
      {{"c_custkey", TypeId::kInt, false},
       {"c_name", TypeId::kVarchar, false},
       {"c_address", TypeId::kVarchar, false},
       {"c_nationkey", TypeId::kInt, false},
       {"c_acctbal", TypeId::kDouble, false}},
      DistributionSpec::HashOn("c_custkey"), {"c_custkey"}, 1500 * sf,
      {1500 * sf, 1500 * sf, 1500 * sf, 25, 1400 * sf});
  add("orders",
      {{"o_orderkey", TypeId::kInt, false},
       {"o_custkey", TypeId::kInt, false},
       {"o_totalprice", TypeId::kDouble, false},
       {"o_orderdate", TypeId::kDate, false}},
      DistributionSpec::HashOn("o_orderkey"), {"o_orderkey"}, 15000 * sf,
      {15000 * sf, 1000 * sf, 14000 * sf, 2400});
  add("lineitem",
      {{"l_orderkey", TypeId::kInt, false},
       {"l_partkey", TypeId::kInt, false},
       {"l_suppkey", TypeId::kInt, false},
       {"l_quantity", TypeId::kDouble, false},
       {"l_extendedprice", TypeId::kDouble, false},
       {"l_discount", TypeId::kDouble, false},
       {"l_shipdate", TypeId::kDate, false},
       {"l_returnflag", TypeId::kVarchar, false},
       {"l_linestatus", TypeId::kVarchar, false}},
      DistributionSpec::HashOn("l_orderkey"), {}, 60000 * sf,
      {15000 * sf, 2000 * sf, 100 * sf, 50, 50000 * sf, 11, 2500, 3, 2});
  add("part",
      {{"p_partkey", TypeId::kInt, false},
       {"p_name", TypeId::kVarchar, false},
       {"p_retailprice", TypeId::kDouble, false}},
      DistributionSpec::HashOn("p_partkey"), {"p_partkey"}, 2000 * sf,
      {2000 * sf, 2000 * sf, 1800 * sf});
  add("partsupp",
      {{"ps_partkey", TypeId::kInt, false},
       {"ps_suppkey", TypeId::kInt, false},
       {"ps_availqty", TypeId::kInt, false},
       {"ps_supplycost", TypeId::kDouble, false}},
      DistributionSpec::HashOn("ps_partkey"), {"ps_partkey", "ps_suppkey"},
      8000 * sf, {2000 * sf, 100 * sf, 7000 * sf, 7500 * sf});
  add("supplier",
      {{"s_suppkey", TypeId::kInt, false},
       {"s_name", TypeId::kVarchar, false},
       {"s_address", TypeId::kVarchar, false},
       {"s_nationkey", TypeId::kInt, false}},
      DistributionSpec::Replicated(), {"s_suppkey"}, 100 * sf,
      {100 * sf, 100 * sf, 100 * sf, 25});
  add("nation",
      {{"n_nationkey", TypeId::kInt, false},
       {"n_name", TypeId::kVarchar, false},
       {"n_regionkey", TypeId::kInt, false}},
      DistributionSpec::Replicated(), {"n_nationkey"}, 25, {25, 25, 5});
  add("region",
      {{"r_regionkey", TypeId::kInt, false},
       {"r_name", TypeId::kVarchar, false}},
      DistributionSpec::Replicated(), {"r_regionkey"}, 5, {5, 5});
  return catalog;
}

}  // namespace pdw::testing

#endif  // PDW_TESTS_TEST_UTIL_H_
