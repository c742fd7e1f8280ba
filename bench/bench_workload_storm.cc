// Workload-storm bench: 16 client sessions fire a mixed TPC-H-shaped
// workload (with repeats) at one appliance and we compare three
// configurations — no workload management, bounded admission (WLM), and
// WLM plus the result cache — on p50/p99 latency and total throughput.
// A second phase deliberately overloads a tiny admission gate and counts
// how many requests fast-fail with kOverloaded instead of piling up.
//
//   $ ./build/bench/bench_workload_storm [--json[=path]]
//
// --json emits a machine-readable summary of every configuration.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"

namespace pdw {
namespace {

constexpr int kThreads = 16;
constexpr int kRepsPerThread = 12;

// Mixed shapes: scans, aggregations, distributed joins. Sixteen threads
// over six statements guarantees heavy repetition — the result cache's
// target profile (dashboards, monitoring panels re-issuing identical SQL).
const char* kWorkload[] = {
    "SELECT c_custkey, c_name FROM customer WHERE c_acctbal > 5000",
    "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s FROM orders "
    "GROUP BY o_custkey",
    "SELECT c_name, o_totalprice FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_totalprice > 200000",
    "SELECT COUNT(*) AS c FROM lineitem, orders WHERE l_orderkey = o_orderkey",
    "SELECT l_returnflag, AVG(l_quantity) AS aq FROM lineitem "
    "GROUP BY l_returnflag",
    "SELECT n_name, COUNT(*) AS c FROM supplier, nation "
    "WHERE s_nationkey = n_nationkey GROUP BY n_name",
};

struct StormResult {
  std::string name;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  int ok = 0;
  int overloaded = 0;
  int errors = 0;
  uint64_t result_cache_hits = 0;
  double moved_mb = 0;             ///< Network MB actually moved.
};

double Quantile(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0;
  std::sort(sorted_ms->begin(), sorted_ms->end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted_ms->size()));
  if (idx >= sorted_ms->size()) idx = sorted_ms->size() - 1;
  return (*sorted_ms)[idx];
}

StormResult RunStorm(Appliance* appliance, const std::string& name,
                     bool use_result_cache) {
  appliance->result_cache().Clear();
  ResultCache::Stats cache_before = appliance->result_cache().stats();
  StormResult out;
  out.name = name;
  std::mutex mu;
  std::vector<double> latencies_ms;
  double moved_bytes = 0;
  std::atomic<int> ok{0}, overloaded{0}, errors{0};
  std::vector<std::thread> threads;
  double t0 = bench::NowSeconds();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session =
          appliance->Connect(QueryOptions().WithResultCache(use_result_cache));
      std::vector<double> local_ms;
      local_ms.reserve(kRepsPerThread);
      double local_moved = 0;
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        size_t qi = static_cast<size_t>(t * 7 + rep) % std::size(kWorkload);
        double q0 = bench::NowSeconds();
        auto r = session.Run(kWorkload[qi]);
        local_ms.push_back((bench::NowSeconds() - q0) * 1e3);
        if (r.ok()) {
          ok.fetch_add(1);
          local_moved += r->dms_metrics.network.bytes;
        } else if (r.status().code() == StatusCode::kOverloaded) {
          overloaded.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
      moved_bytes += local_moved;
    });
  }
  for (auto& th : threads) th.join();
  out.seconds = bench::NowSeconds() - t0;
  out.ok = ok.load();
  out.overloaded = overloaded.load();
  out.errors = errors.load();
  out.p50_ms = Quantile(&latencies_ms, 0.50);
  out.p99_ms = Quantile(&latencies_ms, 0.99);
  out.qps = out.seconds > 0 ? out.ok / out.seconds : 0;
  ResultCache::Stats cache_after = appliance->result_cache().stats();
  out.result_cache_hits = cache_after.hits - cache_before.hits;
  out.moved_mb = moved_bytes / 1e6;
  return out;
}

void PrintRow(const StormResult& r) {
  std::printf("%-26s | %8.3f %8.1f | %8.2f %8.2f | %4d %6d %4d | %6llu | "
              "%8.2f\n",
              r.name.c_str(), r.seconds, r.qps, r.p50_ms, r.p99_ms, r.ok,
              r.overloaded, r.errors,
              static_cast<unsigned long long>(r.result_cache_hits),
              r.moved_mb);
}

std::string JsonRow(const StormResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"seconds\":%.4f,\"qps\":%.2f,\"p50_ms\":%.3f,"
      "\"p99_ms\":%.3f,\"ok\":%d,\"overloaded\":%d,\"errors\":%d,"
      "\"result_cache_hits\":%llu,\"moved_mb\":%.3f}",
      r.name.c_str(), r.seconds, r.qps, r.p50_ms, r.p99_ms, r.ok,
      r.overloaded, r.errors,
      static_cast<unsigned long long>(r.result_cache_hits), r.moved_mb);
  return buf;
}

int Main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    }
  }

  bench::Header("WORKLOAD-STORM: 16 sessions x mixed TPC-H, WLM + result "
                "cache vs baseline");
  auto appliance = bench::MakeTpchAppliance(4, 0.05);

  // Warm the plan cache once per distinct statement so every configuration
  // pays the same compile cost and the comparison isolates execution.
  {
    Session warmup = appliance->Connect();
    for (const char* sql : kWorkload) {
      auto r = warmup.Run(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "warmup: %s\n", r.status().ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("\n%-26s | %8s %8s | %8s %8s | %4s %6s %4s | %6s | %8s\n",
              "config", "total s", "qps", "p50 ms", "p99 ms", "ok", "overld",
              "err", "rchits", "moved MB");

  std::vector<StormResult> results;

  // 1. Baseline: admission disabled, no result cache — every session runs
  //    unthrottled, all repeats re-execute.
  {
    WorkloadManagerConfig off;
    off.enabled = false;
    appliance->workload().SetConfig(off);
    results.push_back(RunStorm(appliance.get(), "baseline (no wlm)",
                               /*use_result_cache=*/false));
    PrintRow(results.back());
  }

  // 2. Bounded admission: 16 sessions drain through a small-class gate
  //    sized to the machine instead of all running at once.
  WorkloadManagerConfig wlm;
  wlm.small = {/*concurrency_slots=*/6, /*queue_depth=*/64};
  wlm.medium = {/*concurrency_slots=*/4, /*queue_depth=*/32};
  wlm.large = {/*concurrency_slots=*/2, /*queue_depth=*/16};
  {
    appliance->workload().SetConfig(wlm);
    results.push_back(
        RunStorm(appliance.get(), "wlm", /*use_result_cache=*/false));
    PrintRow(results.back());
  }

  // 3. WLM + result cache: repeats (and identical in-flight queries) are
  //    served without executing at all.
  {
    appliance->workload().SetConfig(wlm);
    results.push_back(RunStorm(appliance.get(), "wlm + result cache",
                               /*use_result_cache=*/true));
    PrintRow(results.back());
  }

  const StormResult& baseline = results[0];
  const StormResult& cached = results.back();
  std::printf("\nwlm + result cache vs baseline: p99 %.2fx, throughput "
              "%.2fx\n",
              cached.p99_ms > 0 ? baseline.p99_ms / cached.p99_ms : 0,
              baseline.qps > 0 ? cached.qps / baseline.qps : 0);

  // --- overload: a deliberately tiny gate must fast-fail, not pile up ---
  bench::Header("OVERLOAD: slots=1 queue=2, 16 slow sessions -> kOverloaded "
                "fast-fail");
  StormResult storm;
  {
    WorkloadManagerConfig tiny;
    tiny.small = {/*concurrency_slots=*/1, /*queue_depth=*/2};
    appliance->workload().SetConfig(tiny);
    appliance->result_cache().Clear();
    std::atomic<int> ok{0}, overloaded{0}, errors{0};
    std::mutex mu;
    std::vector<double> reject_ms;
    std::vector<std::thread> threads;
    double t0 = bench::NowSeconds();
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        Session session = appliance->Connect();
        // Each query arms a one-shot 20ms dispatch delay so the storm
        // overlaps and the gate genuinely saturates.
        fault::FaultSchedule slow;
        slow.push_back(fault::FaultSpec{"appliance.step.dispatch", 0, 1,
                                        fault::FaultKind::kDelay, 0.02});
        double q0 = bench::NowSeconds();
        auto r = session.Run(kWorkload[3], QueryOptions().WithFaults(slow));
        double ms = (bench::NowSeconds() - q0) * 1e3;
        if (r.ok()) {
          ok.fetch_add(1);
        } else if (r.status().code() == StatusCode::kOverloaded) {
          overloaded.fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          reject_ms.push_back(ms);
        } else {
          errors.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    storm.name = "overload (slots=1 queue=2)";
    storm.seconds = bench::NowSeconds() - t0;
    storm.ok = ok.load();
    storm.overloaded = overloaded.load();
    storm.errors = errors.load();
    storm.p99_ms = Quantile(&reject_ms, 0.99);
    std::printf("\ncompleted %d, fast-failed %d (p99 rejection latency "
                "%.2f ms), other errors %d, total %.3f s\n",
                storm.ok, storm.overloaded, storm.p99_ms, storm.errors,
                storm.seconds);
    results.push_back(storm);
  }

  if (json) {
    std::string out = "{\"threads\":" + std::to_string(kThreads) +
                      ",\"reps_per_thread\":" +
                      std::to_string(kRepsPerThread) + ",\"configs\":[";
    for (size_t i = 0; i < results.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonRow(results[i]);
    }
    out += "]}\n";
    if (json_path.empty()) {
      std::fputs(out.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      std::fputs(out.c_str(), f);
      std::fclose(f);
      std::printf("wrote storm summary to %s\n", json_path.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace pdw

int main(int argc, char** argv) { return pdw::Main(argc, argv); }
