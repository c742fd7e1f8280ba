// CLAIM-DMSDOM (§3.3): "data movement processing times tend to dominate
// overall execution times, thus optimizing for data movements is expected
// to produce good quality plans". This ablation compares the paper's
// DMS-only cost model against an extended model that also charges
// relational operator work: for each TPC-H query, the plan each model
// picks, their modeled costs, and the bytes actually moved when executing
// both. If the DMS-only model is a good proxy, the two models should pick
// plans of near-identical measured quality.

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

void Run() {
  bench::Header("CLAIM-DMSDOM: DMS-only vs extended (relational) cost model");
  auto appliance = bench::MakeTpchAppliance(8, 0.2);

  PdwCompilerOptions dms_only;
  PdwCompilerOptions extended;
  extended.pdw.relational_costs = true;

  std::printf("\n%-5s | %6s %6s | %12s %12s | %8s %8s | %s\n", "query",
              "steps", "steps", "bytes moved", "bytes moved", "wall s",
              "wall s", "same plan shape?");
  std::printf("%-5s | %6s %6s | %12s %12s | %8s %8s |\n", "", "dms",
              "ext", "dms", "ext", "dms", "ext");

  double dms_total = 0, ext_total = 0;
  for (const auto& q : tpch::Queries()) {
    auto a = CompilePdwQuery(appliance->shell(), q.sql, dms_only);
    auto b = CompilePdwQuery(appliance->shell(), q.sql, extended);
    if (!a.ok() || !b.ok()) {
      std::printf("%-5s compile failed\n", q.name.c_str());
      continue;
    }
    auto run_a = appliance->ExecutePlan(*a->parallel.plan, a->output_names);
    auto run_b = appliance->ExecutePlan(*b->parallel.plan, b->output_names);
    if (!run_a.ok() || !run_b.ok()) {
      std::printf("%-5s execution failed\n", q.name.c_str());
      continue;
    }
    double bytes_a = run_a->dms_metrics.network.bytes +
                     run_a->dms_metrics.bulkcopy.bytes;
    double bytes_b = run_b->dms_metrics.network.bytes +
                     run_b->dms_metrics.bulkcopy.bytes;
    dms_total += bytes_a;
    ext_total += bytes_b;
    bool same_shape = PlanTreeToString(*a->parallel.plan) ==
                      PlanTreeToString(*b->parallel.plan);
    std::printf("%-5s | %6zu %6zu | %12.0f %12.0f | %8.3f %8.3f | %s\n",
                q.name.c_str(), run_a->dsql.steps.size(),
                run_b->dsql.steps.size(), bytes_a, bytes_b,
                run_a->measured_seconds, run_b->measured_seconds,
                same_shape ? "yes" : "NO");
  }
  std::printf("\ntotal bytes: dms-only=%.0f extended=%.0f\n", dms_total,
              ext_total);
  std::printf(
      "interpretation: when totals are close, the paper's DMS-only model "
      "already captures the dominant cost — its §3.3 design argument.\n");
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
