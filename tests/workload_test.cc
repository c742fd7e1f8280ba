// Workload-management tier: resource-class classification, bounded
// admission (concurrency caps, FIFO-within-priority, fast-fail overload),
// the keyed result cache, cooperative cancellation (queued, mid-DMS, and
// a result-cache query that must insert nothing), and the Session API
// that fronts it all. Unit tests drive WorkloadManager/ResultCache
// directly; the appliance tests go through Session::Run end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/fault.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

using fault::FaultKind;
using fault::FaultRegistry;
using fault::FaultSchedule;
using fault::FaultSpec;

std::unique_ptr<Appliance> MakeLoadedAppliance(int nodes, double scale) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = scale;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

void SpinUntil(const std::function<bool()>& pred, double timeout_s = 5.0) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- classification ---

TEST(WorkloadManagerTest, ClassifiesFromModeledCost) {
  WorkloadManagerConfig cfg;
  cfg.medium_cost_threshold = 0.1;
  cfg.large_cost_threshold = 2.0;
  WorkloadManager wlm(cfg);
  EXPECT_EQ(wlm.Classify(0.0, ResourceClass::kAuto), ResourceClass::kSmall);
  EXPECT_EQ(wlm.Classify(0.09, ResourceClass::kAuto), ResourceClass::kSmall);
  EXPECT_EQ(wlm.Classify(0.1, ResourceClass::kAuto), ResourceClass::kMedium);
  EXPECT_EQ(wlm.Classify(1.99, ResourceClass::kAuto), ResourceClass::kMedium);
  EXPECT_EQ(wlm.Classify(2.0, ResourceClass::kAuto), ResourceClass::kLarge);
  // A pinned class wins regardless of cost.
  EXPECT_EQ(wlm.Classify(99.0, ResourceClass::kSmall), ResourceClass::kSmall);
  EXPECT_EQ(wlm.Classify(0.0, ResourceClass::kLarge), ResourceClass::kLarge);
}

// --- bounded admission ---

TEST(WorkloadManagerTest, AdmissionCapsConcurrency) {
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/2, /*queue_depth=*/16};
  WorkloadManager wlm(cfg);
  std::atomic<int> active{0}, peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto ticket = wlm.Admit(ResourceClass::kSmall, /*priority=*/0);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      int now = active.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      active.fetch_sub(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(peak.load(), 2);
  auto snap = wlm.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].admitted_total, 8u);
  EXPECT_EQ(snap[0].active, 0);
  EXPECT_EQ(snap[0].queued, 0);
}

TEST(WorkloadManagerTest, DequeueIsFifoWithinPriority) {
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/16};
  WorkloadManager wlm(cfg);
  auto holder = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_TRUE(holder.ok());

  std::mutex order_mu;
  std::vector<uint64_t> admit_order;
  std::vector<std::thread> waiters;
  // Arrivals (in this order): id 10 prio 0, id 20 prio 5, id 30 prio 0.
  // Expected grants: 20 (highest priority), 10, 30 (FIFO within prio 0).
  struct Arrival {
    uint64_t id;
    int priority;
  };
  for (Arrival a : {Arrival{10, 0}, Arrival{20, 5}, Arrival{30, 0}}) {
    size_t queued_before = wlm.Snapshot()[0].queued;
    waiters.emplace_back([&wlm, &order_mu, &admit_order, a] {
      auto t = wlm.Admit(ResourceClass::kSmall, a.priority);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      {
        std::lock_guard<std::mutex> lock(order_mu);
        admit_order.push_back(a.id);
      }
      // Hold briefly so the next grant is strictly ordered behind us.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    // Arrival order must be established before the next waiter queues.
    SpinUntil([&] {
      return wlm.Snapshot()[0].queued == static_cast<int>(queued_before) + 1;
    });
  }
  holder->Release();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(admit_order, (std::vector<uint64_t>{20, 10, 30}));
}

TEST(WorkloadManagerTest, FullQueueFastFailsWithOverloaded) {
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/1};
  WorkloadManager wlm(cfg);
  auto holder = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_TRUE(holder.ok());
  std::thread waiter([&] {
    auto t = wlm.Admit(ResourceClass::kSmall, 0);
    EXPECT_TRUE(t.ok());
  });
  SpinUntil([&] { return wlm.Snapshot()[0].queued == 1; });
  // Slot held, queue full: the third arrival must not block.
  auto overflow = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(wlm.Snapshot()[0].rejected_total, 1u);
  holder->Release();
  waiter.join();
}

TEST(WorkloadManagerTest, CancelWakesQueuedWaiter) {
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/8};
  WorkloadManager wlm(cfg);
  auto holder = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_TRUE(holder.ok());
  std::atomic<bool> cancel{false};
  Status waiter_status = Status::OK();
  std::thread waiter([&] {
    auto t = wlm.Admit(ResourceClass::kSmall, 0, &cancel);
    waiter_status = t.status();
  });
  SpinUntil([&] { return wlm.Snapshot()[0].queued == 1; });
  cancel.store(true);
  wlm.Poke();
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled);
  auto snap = wlm.Snapshot();
  EXPECT_EQ(snap[0].cancelled_total, 1u);
  EXPECT_EQ(snap[0].queued, 0);
  // The cancelled waiter consumed nothing: the slot still promotes others.
  holder->Release();
  auto next = wlm.Admit(ResourceClass::kSmall, 0);
  EXPECT_TRUE(next.ok());
}

TEST(WorkloadManagerTest, DisabledManagerIsPassThrough) {
  WorkloadManagerConfig cfg;
  cfg.enabled = false;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/1};
  WorkloadManager wlm(cfg);
  std::vector<WorkloadManager::Ticket> tickets;
  for (int i = 0; i < 10; ++i) {
    auto t = wlm.Admit(ResourceClass::kSmall, 0);
    ASSERT_TRUE(t.ok());
    tickets.push_back(std::move(*t));
  }
}

// SetConfig resets the slot counts under tickets still held; releasing one
// afterwards must not free a slot the new count never granted.
TEST(WorkloadManagerTest, ReleaseAfterSetConfigSaturatesAtZero) {
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/0};
  WorkloadManager wlm(cfg);
  auto held = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_TRUE(held.ok());
  wlm.SetConfig(cfg);
  held->Release();
  EXPECT_EQ(wlm.Snapshot()[0].active, 0);
  auto first = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(wlm.Snapshot()[0].active, 1);
  auto second = wlm.Admit(ResourceClass::kSmall, 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOverloaded);
}

// --- result cache: unit level ---

TEST(ResultCacheTest, StaleStatisticsVersionInvalidates) {
  auto versions = std::make_shared<TableVersionTracker>();
  ResultCache cache(8, versions);
  ASSERT_FALSE(cache.Lookup("SELECT * FROM t", "fp").has_value());
  CachedQueryResult r;
  r.table_versions = {{"t", versions->Version("t")}};
  cache.Insert("SELECT * FROM t", "fp", r);
  ASSERT_TRUE(cache.Lookup("SELECT * FROM t", "fp").has_value());
  versions->Bump("t");
  EXPECT_FALSE(cache.Lookup("SELECT * FROM t", "fp").has_value());
  EXPECT_GE(cache.stats().invalidations, 1u);
}

// --- appliance-level: result cache through Session::Run ---

constexpr const char* kJoinSql =
    "SELECT c_name, o_totalprice FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_totalprice > 200000";

TEST(ResultCacheApplianceTest, RepeatIsServedFromCacheAndInvalidated) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  Session session = appliance->Connect(QueryOptions().WithResultCache());
  auto first = session.Run(kJoinSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);
  auto second = session.Run(kJoinSql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->result_cache_hit);
  EXPECT_TRUE(RowSetsEqual(first->rows, second->rows));
  EXPECT_EQ(first->column_names, second->column_names);
  EXPECT_EQ(appliance->result_cache().stats().hits, 1u);

  // A stats refresh on a scanned base table drops the dependent result.
  ASSERT_TRUE(appliance->RefreshStatistics("orders").ok());
  auto third = session.Run(kJoinSql);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_FALSE(third->result_cache_hit);
  EXPECT_TRUE(RowSetsEqual(first->rows, third->rows));
  EXPECT_GE(appliance->result_cache().stats().invalidations, 1u);
}

TEST(ResultCacheApplianceTest, ConcurrentIdenticalQueriesMatch) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::mutex result_mu;
  std::vector<RowVector> all_rows;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session =
          appliance->Connect(QueryOptions().WithResultCache());
      auto r = session.Run(kJoinSql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::lock_guard<std::mutex> lock(result_mu);
      all_rows.push_back(r->rows);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(all_rows.size(), static_cast<size_t>(kThreads));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(RowSetsEqual(all_rows[0], all_rows[static_cast<size_t>(t)]))
        << "executed/cached result diverged for thread " << t;
  }
  // Every run either hit the cache or missed and executed; identical
  // misses running at the same time each insert (the same rows).
  ResultCache::Stats stats = appliance->result_cache().stats();
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.insertions, stats.misses);
  EXPECT_EQ(appliance->result_cache().size(), 1u);
}

// --- appliance-level: admission, overload, DMV visibility ---

TEST(WorkloadApplianceTest, OverloadStormFastFailsAndIsVisibleInDmv) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/1};
  appliance->workload().SetConfig(cfg);

  // Stretch every query so the storm overlaps: each run arms its own
  // one-shot dispatch delay.
  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session = appliance->Connect();
      FaultSchedule slow;
      slow.push_back(FaultSpec{"appliance.step.dispatch", 0, 1,
                               FaultKind::kDelay, 0.05});
      auto r = session.Run("SELECT COUNT(*) AS c FROM nation",
                           QueryOptions().WithFaults(slow));
      if (r.ok()) {
        ok_count.fetch_add(1);
      } else if (r.status().code() == StatusCode::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok_count.load(), 2) << "slot + queue should both drain";
  EXPECT_GT(overloaded.load(), 0) << "storm never overflowed the queue";

  // The DMV sees the same counters, and the gate fully drained.
  Session session = appliance->Connect();
  auto dmv = session.Run(
      "SELECT resource_class, active, queued, rejected_total, admitted_total "
      "FROM sys.dm_pdw_workload WHERE resource_class = 'small'");
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  ASSERT_EQ(dmv->rows.size(), 1u);
  EXPECT_EQ(dmv->rows[0][1].int_value(), 0);  // active
  EXPECT_EQ(dmv->rows[0][2].int_value(), 0);  // queued
  EXPECT_EQ(dmv->rows[0][3].int_value(), overloaded.load());
  EXPECT_EQ(dmv->rows[0][4].int_value(), ok_count.load());
  // Queue wait shows up once something actually queued.
  auto snap = appliance->workload().Snapshot();
  EXPECT_GT(snap[0].queue_wait_seconds_total, 0.0);
}

TEST(WorkloadApplianceTest, ExplainAndDmvQueriesBypassAdmission) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  uint64_t admitted_before =
      appliance->workload().Snapshot()[0].admitted_total;
  auto explain = session.Run("SELECT COUNT(*) AS c FROM nation",
                             QueryOptions().WithExplainOnly());
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->resource_class.empty());
  auto dmv = session.Run("SELECT COUNT(*) AS c FROM sys.dm_pdw_workload");
  ASSERT_TRUE(dmv.ok());
  EXPECT_TRUE(dmv->resource_class.empty());
  uint64_t admitted_after = 0;
  for (const auto& s : appliance->workload().Snapshot()) {
    admitted_after += s.admitted_total;
  }
  EXPECT_EQ(admitted_after, admitted_before);
  // A real query goes through the gate and reports its class.
  auto real = session.Run("SELECT COUNT(*) AS c FROM nation");
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real->resource_class, "small");
}

// --- cancellation through the appliance ---

TEST(CancellationTest, CancelMidFlightReturnsCancelledAndCleansUp) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  Session session = appliance->Connect();
  Status run_status = Status::OK();
  std::thread runner([&] {
    // One-shot 300ms dispatch delay opens a wide cancellation window.
    FaultSchedule slow;
    slow.push_back(
        FaultSpec{"appliance.step.dispatch", 0, 1, FaultKind::kDelay, 0.3});
    auto r = session.Run(kJoinSql, QueryOptions().WithFaults(slow));
    run_status = r.status();
  });
  // Find the in-flight query id through the registry and cancel it.
  uint64_t victim = 0;
  SpinUntil([&] {
    for (const auto& req : appliance->requests().Snapshot()) {
      if (!obs::IsTerminalPhase(req.phase) && req.total_steps > 0) {
        victim = req.query_id;
        return true;
      }
    }
    return false;
  });
  ASSERT_NE(victim, 0u) << "query never became visible in the registry";
  ASSERT_TRUE(session.Cancel(victim).ok());
  runner.join();
  EXPECT_EQ(run_status.code(), StatusCode::kCancelled)
      << run_status.ToString();

  // No temp-table litter anywhere, and the registry row is terminal.
  for (int n = 0; n < appliance->num_compute_nodes(); ++n) {
    for (const std::string& t :
         appliance->compute_node(n).catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
          << "leaked " << t << " on node " << n;
    }
  }
  auto dmv = appliance->Run(
      "SELECT status FROM sys.dm_pdw_exec_requests WHERE request_id = " +
      std::to_string(victim));
  ASSERT_TRUE(dmv.ok());
  ASSERT_EQ(dmv->rows.size(), 1u);
  EXPECT_EQ(dmv->rows[0][0].string_value(), "cancelled");
  // Cancelling a finished query reports NotFound.
  EXPECT_EQ(session.Cancel(victim).code(), StatusCode::kNotFound);
}

TEST(CancellationTest, CancelWhileQueuedForAdmission) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  WorkloadManagerConfig cfg;
  cfg.small = {/*concurrency_slots=*/1, /*queue_depth=*/4};
  appliance->workload().SetConfig(cfg);

  Status holder_status = Status::OK(), queued_status = Status::OK();
  std::thread holder([&] {
    Session s = appliance->Connect();
    FaultSchedule slow;
    slow.push_back(
        FaultSpec{"appliance.step.dispatch", 0, 1, FaultKind::kDelay, 0.3});
    holder_status =
        s.Run("SELECT COUNT(*) AS c FROM nation",
              QueryOptions().WithFaults(slow))
            .status();
  });
  // Wait for the holder to occupy the only slot.
  SpinUntil([&] {
    return appliance->workload().Snapshot()[0].active == 1;
  });
  std::thread queued([&] {
    Session s = appliance->Connect();
    queued_status = s.Run("SELECT COUNT(*) AS c FROM region").status();
  });
  SpinUntil([&] { return appliance->workload().Snapshot()[0].queued == 1; });
  uint64_t victim = 0;
  for (const auto& req : appliance->requests().Snapshot()) {
    if (req.phase == obs::RequestPhase::kQueued) victim = req.query_id;
  }
  ASSERT_NE(victim, 0u);
  ASSERT_TRUE(appliance->Cancel(victim).ok());
  queued.join();
  holder.join();
  EXPECT_TRUE(holder_status.ok()) << holder_status.ToString();
  EXPECT_EQ(queued_status.code(), StatusCode::kCancelled)
      << queued_status.ToString();
  auto snap = appliance->workload().Snapshot();
  EXPECT_EQ(snap[0].cancelled_total, 1u);
  EXPECT_EQ(snap[0].queued, 0);
  EXPECT_EQ(snap[0].active, 0);
}

TEST(CancellationTest, CancelledResultCacheQueryInsertsNothing) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  // Reference rows without the result cache (also warms the plan cache).
  auto isolated = appliance->Connect().Run(kJoinSql);
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
  Session session = appliance->Connect(QueryOptions().WithResultCache());
  const uint64_t insertions_before =
      appliance->result_cache().stats().insertions;

  // Slow every DMS transfer process-wide, so the query is still moving
  // data when the cancel arrives.
  FaultSpec slow;
  slow.point = "dms.network";
  slow.count = -1;
  slow.kind = FaultKind::kDelay;
  slow.delay_seconds = 0.2;
  uint64_t slow_token = FaultRegistry::Global().Arm({slow});

  Result<ApplianceResult> cancelled = Status::Internal("not run");
  std::thread runner([&] { cancelled = session.Run(kJoinSql); });
  uint64_t victim = 0;
  SpinUntil([&] {
    for (const auto& req : appliance->requests().Snapshot()) {
      if (!obs::IsTerminalPhase(req.phase) && req.total_steps > 0) {
        victim = req.query_id;
        return true;
      }
    }
    return false;
  });
  Status cancel_status = session.Cancel(victim);
  runner.join();
  FaultRegistry::Global().Disarm(slow_token);

  ASSERT_NE(victim, 0u) << "query never started executing";
  ASSERT_TRUE(cancel_status.ok()) << cancel_status.ToString();
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().ToString();
  auto dmv = appliance->Run(
      "SELECT status FROM sys.dm_pdw_exec_requests WHERE request_id = " +
      std::to_string(victim));
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  ASSERT_EQ(dmv->rows.size(), 1u);
  EXPECT_EQ(dmv->rows[0][0].string_value(), "cancelled");
  // The cancelled run inserted nothing.
  EXPECT_EQ(appliance->result_cache().stats().insertions, insertions_before);
  EXPECT_EQ(appliance->result_cache().size(), 0u);

  // So the next identical run executes, and the one after it hits.
  auto fresh = session.Run(kJoinSql);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->result_cache_hit);
  EXPECT_TRUE(RowSetsEqual(isolated->rows, fresh->rows));
  auto again = session.Run(kJoinSql);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->result_cache_hit);
  EXPECT_TRUE(RowSetsEqual(isolated->rows, again->rows));
}

// --- session API ---

TEST(SessionTest, SessionsCarryDistinctIdsIntoTheDmv) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session a = appliance->Connect();
  Session b = appliance->Connect();
  EXPECT_NE(a.id(), b.id());
  EXPECT_GE(a.id(), 2u);  // 1 is the implicit Appliance::Run session
  auto ra = a.Run("SELECT COUNT(*) AS c FROM nation");
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->session_id, a.id());
  auto rb = b.Run("SELECT COUNT(*) AS c FROM region");
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->session_id, b.id());
  auto legacy = appliance->Run("SELECT COUNT(*) AS c FROM region");
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->session_id, 1u);

  auto dmv = a.Run(
      "SELECT request_id, session_id FROM sys.dm_pdw_exec_requests "
      "WHERE request_id = " + std::to_string(ra->query_id));
  ASSERT_TRUE(dmv.ok());
  ASSERT_EQ(dmv->rows.size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(dmv->rows[0][1].int_value()), a.id());
}

TEST(SessionTest, SessionDefaultsApplyAndPerCallOptionsOverride) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect(QueryOptions().WithExplainOnly());
  auto explained = session.Run("SELECT COUNT(*) AS c FROM nation");
  ASSERT_TRUE(explained.ok());
  EXPECT_TRUE(explained->rows.empty());  // session default: explain only
  EXPECT_FALSE(explained->plan_text.empty());
  // A per-call options object replaces the defaults entirely.
  auto executed = session.Run("SELECT COUNT(*) AS c FROM nation",
                              QueryOptions());
  ASSERT_TRUE(executed.ok());
  ASSERT_EQ(executed->rows.size(), 1u);
}

TEST(SessionTest, FluentBuilderComposes) {
  QueryOptions options = QueryOptions()
                             .WithPlanCache(false)
                             .WithExplainOnly()
                             .WithMaxParallelNodes(3)
                             .WithResourceClass(ResourceClass::kLarge)
                             .WithPriority(7)
                             .WithResultCache()
                             .WithOperatorActuals()
                             .WithTraceOut("/tmp/t.json");
  EXPECT_FALSE(options.compile.use_plan_cache);
  EXPECT_TRUE(options.compile.explain_only);
  EXPECT_EQ(options.execute.max_parallel_nodes, 3);
  EXPECT_EQ(options.execute.resource_class, ResourceClass::kLarge);
  EXPECT_EQ(options.execute.priority, 7);
  EXPECT_TRUE(options.execute.use_result_cache);
  EXPECT_TRUE(options.observe.collect_operator_actuals);
  EXPECT_EQ(options.observe.trace_out, "/tmp/t.json");
}

TEST(SessionTest, PlanCacheIsOnByDefault) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  Session session = appliance->Connect();
  const char* sql = "SELECT COUNT(*) AS c FROM nation";
  auto first = session.Run(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = session.Run(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_GE(appliance->plan_cache().stats().hits, 1u);
}

}  // namespace
}  // namespace pdw
