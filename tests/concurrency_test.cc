// Concurrent-session and plan-cache behavior of the unified Run API: many
// threads firing distributed queries at one appliance must all match the
// single-node reference, with and without the plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/thread_pool.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

std::unique_ptr<Appliance> MakeLoadedAppliance(int nodes, double scale) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = scale;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

const char* kQueries[] = {
    "SELECT c_custkey, c_name FROM customer WHERE c_acctbal > 5000",
    "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s FROM orders "
    "GROUP BY o_custkey",
    "SELECT c_name, o_totalprice FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_totalprice > 200000",
    "SELECT COUNT(*) AS c FROM lineitem, orders WHERE l_orderkey = o_orderkey",
    "SELECT s_name, n_name FROM supplier, nation "
    "WHERE s_nationkey = n_nationkey",
    "SELECT l_returnflag, AVG(l_quantity) AS aq FROM lineitem "
    "GROUP BY l_returnflag",
};

// --- per-node step profile ---

TEST(ParallelExecutionTest, StepProfileRecordsPerNodeTimings) {
  auto appliance = MakeLoadedAppliance(4, 0.05);
  Session session = appliance->Connect();
  auto r = session.Run(
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->profile.steps.empty());
  // The Return step ran on all 4 compute nodes; every node reported a time.
  const obs::StepProfile& last = r->profile.steps.back();
  EXPECT_EQ(last.node_seconds.size(), 4u);
}

// --- N session threads, no cache: every result matches the reference ---

TEST(ConcurrencyTest, ConcurrentSessionsMatchReference) {
  auto appliance = MakeLoadedAppliance(4, 0.05);
  Session session = appliance->Connect();
  constexpr int kThreads = 8;
  constexpr int kReps = 4;

  // Reference answers, computed single-threaded up front.
  std::vector<RowVector> expected;
  for (const char* sql : kQueries) {
    auto ref = appliance->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << sql;
    expected.push_back(ref->rows);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        size_t qi = static_cast<size_t>(t + rep) % std::size(kQueries);
        auto r = session.Run(kQueries[qi]);
        if (!r.ok() || !RowSetsEqual(r->rows, expected[qi])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // No leaked temp tables on any node after the storm.
  for (int n = 0; n < appliance->num_compute_nodes(); ++n) {
    for (const std::string& t :
         appliance->compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos) << t;
    }
  }
}

// --- same storm with the plan cache on: results identical, hits recorded ---

TEST(ConcurrencyTest, ConcurrentSessionsWithPlanCache) {
  auto appliance = MakeLoadedAppliance(4, 0.05);
  Session session = appliance->Connect();
  constexpr int kThreads = 8;
  constexpr int kReps = 4;

  std::vector<RowVector> expected;
  for (const char* sql : kQueries) {
    auto ref = appliance->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << sql;
    expected.push_back(ref->rows);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryOptions opts;
      opts.compile.use_plan_cache = true;
      for (int rep = 0; rep < kReps; ++rep) {
        size_t qi = static_cast<size_t>(t + rep) % std::size(kQueries);
        auto r = session.Run(kQueries[qi], opts);
        if (!r.ok() || !RowSetsEqual(r->rows, expected[qi])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  PlanCache::Stats stats = appliance->plan_cache().stats();
  // kThreads * kReps runs over |kQueries| distinct texts: most runs hit.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(appliance->plan_cache().size(), std::size(kQueries));
}

// --- plan cache unit behavior through the Run API ---

TEST(PlanCacheTest, RepeatRunHitsCache) {
  auto appliance = MakeLoadedAppliance(4, 0.02);
  Session session = appliance->Connect();
  QueryOptions opts;
  opts.compile.use_plan_cache = true;
  const char* sql = "SELECT COUNT(*) AS c FROM orders";

  auto first = session.Run(sql, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = session.Run(sql, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(second->profile.cache_hit);
  EXPECT_TRUE(RowSetsEqual(first->rows, second->rows));

  // Normalization: whitespace and keyword case don't miss.
  auto reformatted =
      session.Run("select   COUNT(*)  as C\nfrom ORDERS", opts);
  ASSERT_TRUE(reformatted.ok());
  EXPECT_TRUE(reformatted->cache_hit);

  PlanCache::Stats stats = appliance->plan_cache().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(PlanCacheTest, LoadRowsInvalidatesPlansReadingTheTable) {
  auto appliance = MakeLoadedAppliance(4, 0.02);
  Session session = appliance->Connect();
  QueryOptions opts;
  opts.compile.use_plan_cache = true;
  const char* orders_sql = "SELECT COUNT(*) AS c FROM orders";
  const char* nation_sql = "SELECT n_name FROM nation WHERE n_regionkey = 2";

  ASSERT_TRUE(session.Run(orders_sql, opts).ok());
  ASSERT_TRUE(session.Run(nation_sql, opts).ok());

  // Loading into orders bumps its statistics version...
  auto def = appliance->shell().GetTable("orders");
  ASSERT_TRUE(def.ok());
  Row extra;
  extra.push_back(Datum::Int(999983));
  extra.push_back(Datum::Int(1));
  extra.push_back(Datum::Double(42.0));
  extra.push_back(Datum::Date(9000));
  extra.push_back(Datum::Varchar("1-URGENT"));
  extra.push_back(Datum::Int(0));
  ASSERT_TRUE(appliance->LoadRows("orders", {extra}).ok());

  // ...so the orders plan recompiles (and sees the new row), while the
  // nation plan is untouched and still hits.
  auto after = session.Run(orders_sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  auto ref = appliance->ExecuteReference(orders_sql);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(RowSetsEqual(after->rows, ref->rows));

  auto nation_again = session.Run(nation_sql, opts);
  ASSERT_TRUE(nation_again.ok());
  EXPECT_TRUE(nation_again->cache_hit);

  EXPECT_GE(appliance->plan_cache().stats().invalidations, 1u);
}

TEST(PlanCacheTest, RefreshStatisticsInvalidates) {
  auto appliance = MakeLoadedAppliance(4, 0.02);
  Session session = appliance->Connect();
  QueryOptions opts;
  opts.compile.use_plan_cache = true;
  const char* sql = "SELECT c_name FROM customer WHERE c_acctbal > 5000";

  ASSERT_TRUE(session.Run(sql, opts).ok());
  ASSERT_TRUE(appliance->RefreshStatistics("customer").ok());
  auto after = session.Run(sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
}

TEST(PlanCacheTest, DistinctCompilerOptionsGetDistinctEntries) {
  auto appliance = MakeLoadedAppliance(4, 0.02);
  Session session = appliance->Connect();
  const char* sql =
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey";

  QueryOptions a;
  a.compile.use_plan_cache = true;
  QueryOptions b = a;
  b.compile.compiler.pdw.enable_trim_move = !b.compile.compiler.pdw.enable_trim_move;

  ASSERT_TRUE(session.Run(sql, a).ok());
  auto with_b = session.Run(sql, b);
  ASSERT_TRUE(with_b.ok());
  EXPECT_FALSE(with_b->cache_hit);  // different fingerprint, distinct entry
  EXPECT_EQ(appliance->plan_cache().size(), 2u);

  auto again_a = session.Run(sql, a);
  ASSERT_TRUE(again_a.ok());
  EXPECT_TRUE(again_a->cache_hit);
  auto again_b = session.Run(sql, b);
  ASSERT_TRUE(again_b.ok());
  EXPECT_TRUE(again_b->cache_hit);
}

TEST(PlanCacheTest, LruEvictsOldestEntry) {
  PlanCache cache(2);
  CachedDsqlPlan plan;
  cache.Insert("q1", "f", plan);
  cache.Insert("q2", "f", plan);
  EXPECT_TRUE(cache.Lookup("q1", "f").has_value());  // q1 now most recent
  cache.Insert("q3", "f", plan);                     // evicts q2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("q2", "f").has_value());
  EXPECT_TRUE(cache.Lookup("q1", "f").has_value());
  EXPECT_TRUE(cache.Lookup("q3", "f").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCacheTest, NormalizePreservesLiteralCase) {
  EXPECT_EQ(NormalizeSqlForPlanCache("SELECT  N_NAME\nFROM nation "
                                     "WHERE n_name = 'CANADA'"),
            "select n_name from nation where n_name = 'CANADA'");
}

// --- the shared worker pool itself ---

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  pool.ParallelFor(100, [&](int i) {
    counts[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace pdw
