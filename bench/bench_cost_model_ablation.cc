// CLAIM-DMSDOM (§3.3): "data movement processing times tend to dominate
// overall execution times, thus optimizing for data movements is expected
// to produce good quality plans". This ablation compares the production
// objective — the paper's DMS cost, with modeled local work breaking exact
// ties only — against the extended model that adds relational_lambda x
// local work to the cost (`relational_costs = true`). For each TPC-H query
// at scales 0.2, 1 and 4 on 8 nodes it prints each plan's DSQL steps, the
// DMS network bytes it moved, and the median DSQL wall time of 3 runs.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

struct Measured {
  size_t steps = 0;
  double bytes = 0;
  double wall_ms = 0;

  void Add(const Measured& m) {
    steps += m.steps;
    bytes += m.bytes;
    wall_ms += m.wall_ms;
  }
};

/// Compiles `sql` under `options` and runs the plan 3 times; false when
/// compilation or execution fails.
bool Measure(Appliance* appliance, const std::string& sql,
             const PdwCompilerOptions& options, Measured* out) {
  auto compiled = CompilePdwQuery(appliance->shell(), sql, options);
  if (!compiled.ok()) return false;
  std::vector<double> walls;
  for (int run = 0; run < 3; ++run) {
    auto r = appliance->ExecutePlan(*compiled->parallel.plan,
                                    compiled->output_names);
    if (!r.ok()) return false;
    out->steps = r->dsql.steps.size();
    out->bytes = r->dms_metrics.network.bytes;
    walls.push_back(r->measured_seconds * 1e3);
  }
  std::sort(walls.begin(), walls.end());
  out->wall_ms = walls[1];
  return true;
}

void RunScale(double scale) {
  auto appliance = bench::MakeTpchAppliance(8, scale);
  PdwCompilerOptions production;
  PdwCompilerOptions extended;
  extended.pdw.relational_costs = true;

  std::printf("\nscale %g (production = DMS cost, local work breaks ties; "
              "rel = relational_costs)\n", scale);
  std::printf("%-5s | %5s %5s | %12s %12s | %9s %9s\n", "query", "steps",
              "steps", "bytes moved", "bytes moved", "wall ms", "wall ms");
  std::printf("%-5s | %5s %5s | %12s %12s | %9s %9s\n", "", "prod", "rel",
              "prod", "rel", "prod", "rel");
  Measured total_a, total_b;
  for (const auto& q : tpch::Queries()) {
    Measured a, b;
    if (!Measure(appliance.get(), q.sql, production, &a) ||
        !Measure(appliance.get(), q.sql, extended, &b)) {
      std::printf("%-5s failed\n", q.name.c_str());
      continue;
    }
    std::printf("%-5s | %5zu %5zu | %12.0f %12.0f | %9.2f %9.2f\n",
                q.name.c_str(), a.steps, b.steps, a.bytes, b.bytes,
                a.wall_ms, b.wall_ms);
    total_a.Add(a);
    total_b.Add(b);
  }
  std::printf("%-5s | %5zu %5zu | %12.0f %12.0f | %9.2f %9.2f\n", "total",
              total_a.steps, total_b.steps, total_a.bytes, total_b.bytes,
              total_a.wall_ms, total_b.wall_ms);
}

void Run() {
  bench::Header("CLAIM-DMSDOM: DMS cost vs DMS + relational cost, by scale");
  for (double scale : {0.2, 1.0, 4.0}) RunScale(scale);
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
