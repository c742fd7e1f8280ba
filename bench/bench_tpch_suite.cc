// Overall plan-quality table over the TPC-H subset: for every query, the
// number of DSQL steps, the modeled DMS cost of the PDW plan vs the
// parallelized-best-serial baseline, the measured bytes actually moved by
// both plans on the appliance simulator, wall times, and a correctness
// check against single-node reference execution.

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/baseline.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

void Run(bench::ProfileJsonSink* sink) {
  bench::Header("TPCH-SUITE: PDW optimizer vs parallelized-serial baseline");
  auto appliance = bench::MakeTpchAppliance(8, 0.2);
  Session session = appliance->Connect();

  std::printf("\n%-5s %5s | %11s %11s %7s | %11s %11s %7s | %8s %8s | %5s"
              " | %9s %9s %4s | %3s %11s %7s\n",
              "query", "steps", "pdw cost", "base cost", "ratio", "pdw bytes",
              "base bytes", "ratio", "pdw s", "base s", "match",
              "compile1", "compile2", "hit", "pa", "pa-off B", "ratio");

  double total_pdw_bytes = 0, total_base_bytes = 0;
  for (const auto& q : tpch::Queries()) {
    auto comp = CompilePdwQuery(appliance->shell(), q.sql);
    if (!comp.ok()) {
      std::printf("%-5s compile failed: %s\n", q.name.c_str(),
                  comp.status().ToString().c_str());
      continue;
    }
    auto baseline = BuildSerialBaseline(comp->serial.memo.get(),
                                        appliance->shell().topology());
    if (!baseline.ok()) {
      std::printf("%-5s baseline failed: %s\n", q.name.c_str(),
                  baseline.status().ToString().c_str());
      continue;
    }
    auto pdw_run = appliance->ExecutePlan(*comp->parallel.plan,
                                          comp->output_names);
    auto base_run = appliance->ExecutePlan(*baseline->plan,
                                           comp->output_names);
    auto ref = appliance->ExecuteReference(q.sql);
    if (!pdw_run.ok() || !base_run.ok() || !ref.ok()) {
      std::printf("%-5s execution failed (%s / %s / %s)\n", q.name.c_str(),
                  pdw_run.status().ToString().c_str(),
                  base_run.status().ToString().c_str(),
                  ref.status().ToString().c_str());
      continue;
    }
    // visible-column handling: compare against the distributed run that
    // goes through the full Run path (trimmed). With a JSON sink the run
    // also collects per-operator actuals for the profile dump. The plan
    // cache is on, so the first run compiles and inserts, the repeat is
    // served from cache with compile time ≈ the cache-lookup cost.
    QueryOptions opts;
    opts.observe.collect_operator_actuals = sink->enabled();
    opts.compile.use_plan_cache = true;
    auto dist = session.Run(q.sql, opts);
    bool match = dist.ok() && RowSetsEqual(dist->rows, ref->rows);
    if (dist.ok()) sink->Add(q.name, dist->profile);
    auto repeat = session.Run(q.sql, opts);
    double compile1 = dist.ok() ? dist->profile.compile_seconds : 0;
    double compile2 = repeat.ok() ? repeat->profile.compile_seconds : 0;
    bool hit = repeat.ok() && repeat->cache_hit;

    double pdw_bytes = pdw_run->dms_metrics.network.bytes +
                       pdw_run->dms_metrics.bulkcopy.bytes;
    double base_bytes = base_run->dms_metrics.network.bytes +
                        base_run->dms_metrics.bulkcopy.bytes;
    total_pdw_bytes += pdw_bytes;
    total_base_bytes += base_bytes;

    // DMS bytes with partial-aggregate pushdown forced off: how much of
    // the movement reduction the default (pushdown-enabled) plan owes to
    // the pre-aggregation enforcer on this query.
    PdwCompilerOptions no_preagg;
    no_preagg.pdw.enable_preagg = false;
    auto no_pa_run = session.Run(q.sql, QueryOptions()
                                            .WithCompilerOptions(no_preagg)
                                            .WithPlanCache(false));
    double no_pa_bytes =
        no_pa_run.ok() ? no_pa_run->dms_metrics.network.bytes +
                             no_pa_run->dms_metrics.bulkcopy.bytes
                       : 0;
    double dist_bytes = dist.ok() ? dist->dms_metrics.network.bytes +
                                        dist->dms_metrics.bulkcopy.bytes
                                  : 0;

    std::printf(
        "%-5s %5zu | %11.6f %11.6f %6.2fx | %11.0f %11.0f %6.2fx | %8.3f "
        "%8.3f | %5s | %8.2fms %8.2fms %4s | %3s %11.0f %6.2fx\n",
        q.name.c_str(), pdw_run->dsql.steps.size(), comp->parallel.cost,
        baseline->cost,
        comp->parallel.cost > 0 ? baseline->cost / comp->parallel.cost : 1.0,
        pdw_bytes, base_bytes, pdw_bytes > 0 ? base_bytes / pdw_bytes : 1.0,
        pdw_run->measured_seconds, base_run->measured_seconds,
        match ? "YES" : "NO", compile1 * 1e3, compile2 * 1e3,
        hit ? "YES" : "NO", comp->parallel.preagg_chosen ? "YES" : "no",
        no_pa_bytes, dist_bytes > 0 ? no_pa_bytes / dist_bytes : 1.0);
  }
  std::printf("\ntotal bytes moved: pdw=%.0f baseline=%.0f (%.2fx reduction)\n",
              total_pdw_bytes, total_base_bytes,
              total_pdw_bytes > 0 ? total_base_bytes / total_pdw_bytes : 1.0);
}

}  // namespace
}  // namespace pdw

int main(int argc, char** argv) {
  pdw::bench::ProfileJsonSink sink(argc, argv);
  pdw::Run(&sink);
  sink.Flush();
  return 0;
}
