// monitor: a live, top-style view of a busy appliance, driven entirely by
// DMV queries — the same SQL an operator would run against the real PDW
// control node. A background workload fires TPC-H queries at the appliance
// while the main thread polls sys.dm_pdw_exec_requests / _steps /
// _metrics and redraws the screen.
//
//   $ ./build/examples/monitor [refreshes]     (default 40, ~100ms apart)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/fault.h"
#include "tpch/tpch.h"

using namespace pdw;

namespace {

/// Runs a DMV query and prints its rows as a fixed-width table.
void PrintDmv(Session* session, const char* title, const std::string& sql) {
  auto r = session->Run(sql);
  if (!r.ok()) {
    std::printf("%s: %s\n", title, r.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", title);
  for (const std::string& name : r->column_names) {
    std::printf("  %-14.14s", name.c_str());
  }
  std::printf("\n");
  for (const Row& row : r->rows) {
    for (const Datum& d : row) {
      std::printf("  %-14.14s", d.ToString().c_str());
    }
    std::printf("\n");
  }
  if (r->rows.empty()) std::printf("  (none)\n");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int refreshes = argc > 1 ? std::atoi(argv[1]) : 40;

  // A 4-node appliance with a small TPC-H load as the workload substrate.
  Appliance appliance(Topology{4});
  if (!tpch::CreateTpchTables(&appliance).ok()) return 1;
  tpch::TpchConfig cfg;
  cfg.scale = 0.02;
  if (!tpch::LoadTpch(&appliance, cfg).ok()) return 1;
  // Stretch each DSQL step a little so the live view has something to see:
  // the workload sessions delay every node dispatch by 2 ms.
  auto slow =
      fault::ParseFaultSchedule("appliance.step.dispatch:*:*:delay@0.002");
  if (!slow.ok()) return 1;

  // Background sessions: a mixed read workload, some of it cached.
  const char* workload[] = {
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 100000",
      "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s "
      "FROM orders GROUP BY o_custkey",
      "SELECT COUNT(*) AS c FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey",
      "SELECT l_returnflag, AVG(l_quantity) AS aq FROM lineitem "
      "GROUP BY l_returnflag",
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> sessions;
  for (int t = 0; t < 3; ++t) {
    sessions.emplace_back([&, t] {
      QueryOptions options = QueryOptions().WithFaults(*slow);
      options.compile.use_plan_cache = t % 2 == 0;
      Session session = appliance.Connect(options);
      for (int i = 0; !stop.load(); ++i) {
        auto r = session.Run(workload[(t + i) % 4]);
        if (!r.ok()) break;
      }
    });
  }

  // The operator's own session for DMV polling.
  Session monitor = appliance.Connect();
  for (int frame = 0; frame < refreshes; ++frame) {
    std::printf("\x1b[2J\x1b[H");  // clear screen, cursor home
    std::printf("pdw appliance monitor — frame %d/%d — all data via DMV "
                "queries\n\n", frame + 1, refreshes);
    PrintDmv(&monitor, "executing now (sys.dm_pdw_exec_requests)",
             "SELECT request_id, status, current_step, total_steps, "
             "retries, rows_moved FROM sys.dm_pdw_exec_requests "
             "WHERE status = 'executing' AND total_steps > 0");
    PrintDmv(&monitor, "running steps (sys.dm_pdw_exec_steps)",
             "SELECT request_id, step_index, kind, move_kind, rows_moved "
             "FROM sys.dm_pdw_exec_steps WHERE status = 'running'");
    PrintDmv(&monitor, "throughput (sys.dm_pdw_exec_requests)",
             "SELECT status, COUNT(*) AS requests, SUM(retries) AS retries "
             "FROM sys.dm_pdw_exec_requests WHERE total_steps > 0 "
             "GROUP BY status");
    PrintDmv(&monitor, "latency quantiles (sys.dm_pdw_metrics)",
             "SELECT metric_name, value, p50, p95, p99 "
             "FROM sys.dm_pdw_metrics WHERE metric_kind = 'histogram' AND "
             "p99 > 0");
    PrintDmv(&monitor, "plan cache (sys.dm_pdw_plan_cache)",
             "SELECT sql_text, hits, num_steps FROM sys.dm_pdw_plan_cache");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  stop.store(true);
  for (auto& t : sessions) t.join();
  std::printf("\nworkload drained; %zu requests retained in the registry\n",
              appliance.requests().finished_count());
  return 0;
}
