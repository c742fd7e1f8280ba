// §3.2: "While our current implementation employs a bottom-up search
// strategy, a top-down enumeration technique is equally applicable to the
// PDW QO design." This bench runs both enumerators over the TPC-H suite
// and compares: optimal plan cost (must agree — the strategies search the
// same space under the same cost model), optimization time, and how much
// of the space each touches (bottom-up: options considered/kept across all
// groups; top-down: (group, property) states computed on demand).

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/compiler.h"
#include "pdw/top_down.h"

namespace pdw {
namespace {

void Run() {
  bench::Header("TOP-DOWN vs BOTTOM-UP enumeration (§3.2)");
  auto appliance = bench::MakeTpchAppliance(8, 0.1);

  std::printf("\n%-5s | %12s %12s %7s | %10s %10s | %10s %10s\n", "query",
              "bottom-up", "top-down", "agree", "bu ms", "td ms",
              "bu options", "td states");
  for (const auto& q : tpch::Queries()) {
    auto comp = CompilePdwQuery(appliance->shell(), q.sql);
    if (!comp.ok()) {
      std::printf("%-5s compile failed\n", q.name.c_str());
      continue;
    }
    // Bottom-up (re-run standalone for a fair timing).
    double bu_cost = 0;
    size_t bu_options = 0;
    double bu_ms = bench::TimeMs([&]() {
      PdwOptimizer opt(comp->serial.memo.get(), appliance->shell().topology());
      auto r = opt.Optimize();
      if (r.ok()) {
        bu_cost = r->cost;
        bu_options = r->options_considered;
      }
    });
    // Top-down.
    double td_cost = 0;
    size_t td_states = 0;
    double td_ms = bench::TimeMs([&]() {
      TopDownPdwOptimizer opt(comp->serial.memo.get(),
                              appliance->shell().topology());
      auto r = opt.OptimalCost();
      if (r.ok()) {
        td_cost = *r;
        td_states = opt.stats().states_computed;
      }
    });
    bool agree = std::abs(bu_cost - td_cost) <= 1e-12 + bu_cost * 1e-9;
    std::printf("%-5s | %12.6f %12.6f %7s | %10.3f %10.3f | %10zu %10zu\n",
                q.name.c_str(), bu_cost, td_cost, agree ? "YES" : "NO",
                bu_ms, td_ms, bu_options, td_states);
  }
  std::printf(
      "\ninterpretation: identical winners from two independent search\n"
      "strategies over the same memo + cost model — the paper's claim that\n"
      "the design is search-strategy-agnostic. Bottom-up counts every\n"
      "(expr x child-option) combination considered; top-down counts the\n"
      "(group, property) states it actually computed.\n");
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
