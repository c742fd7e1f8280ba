// Reproduces Figure 3: the parallel query optimization flow for
//   SELECT * FROM CUSTOMER C, ORDERS O
//   WHERE C.C_CUSTKEY = O.O_CUSTKEY AND O.O_TOTALPRICE > 1000
// (a) input query, (b) logical tree, (c) serial memo + PDW augmentation
// with data-movement options, (d) best parallel plan, (e) DSQL plan.

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"

namespace pdw {
namespace {

const char* kFig3Query =
    "SELECT * FROM customer C, orders O "
    "WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000";

void Run() {
  bench::Header("FIG3: memo augmentation for Customer JOIN Orders");
  auto appliance = bench::MakeTpchAppliance(8, 0.1);
  Session session = appliance->Connect();

  std::printf("\n(a) input query:\n  %s\n", kFig3Query);

  auto comp = CompilePdwQuery(appliance->shell(), kFig3Query);
  if (!comp.ok()) {
    std::printf("compile failed: %s\n", comp.status().ToString().c_str());
    return;
  }

  std::printf("\n(b) normalized logical tree:\n%s",
              LogicalTreeToString(*comp->serial.normalized).c_str());

  std::printf("\n(c1) serial MEMO exported by the SQL Server stage:\n%s",
              comp->serial.memo->ToString().c_str());

  // Re-run the PDW optimizer to show the augmented per-group option
  // tables (the Move/Shuffle/Replicate groups of Fig. 3(c)).
  PdwOptimizer optimizer(comp->serial.memo.get(),
                         appliance->shell().topology());
  auto plan = optimizer.Optimize();
  if (!plan.ok()) {
    std::printf("optimize failed: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("\n(c2) PDW augmentation: per-group distribution options "
              "(enforcers marked MOVE):\n");
  for (int g = 0; g < comp->serial.memo->num_groups(); ++g) {
    std::printf("  Group %d:\n", g);
    for (const auto& o : optimizer.group_options(g)) {
      if (o.is_enforcer) {
        std::printf("    %-18s cost=%.6f  [MOVE %s]\n",
                    o.prop.ToString().c_str(), o.cost,
                    DmsOpKindToString(o.move_kind));
      } else {
        std::printf("    %-18s cost=%.6f  [expr %d]\n",
                    o.prop.ToString().c_str(), o.cost, o.expr_index);
      }
    }
  }

  std::printf("\n(d) best parallel plan (cost %.6f):\n%s",
              plan->cost, PlanTreeToString(*plan->plan).c_str());

  auto dsql = GenerateDsql(*plan->plan, comp->output_names);
  if (dsql.ok()) {
    std::printf("\n(e) DSQL plan:\n%s", dsql->ToString().c_str());
  }

  // Sanity: execute distributed and reference.
  auto dist = session.Run(kFig3Query);
  auto ref = appliance->ExecuteReference(kFig3Query);
  if (dist.ok() && ref.ok()) {
    std::printf("\nexecution check: distributed=%zu rows, reference=%zu rows, "
                "match=%s\n",
                dist->rows.size(), ref->rows.size(),
                RowSetsEqual(dist->rows, ref->rows) ? "YES" : "NO");
  }
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
