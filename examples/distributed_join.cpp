// Walkthrough of the paper's Figure 3 example — the two-table join
//
//   SELECT * FROM Customer C, Orders O
//   WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000
//
// with customer hash-distributed on c_custkey and orders on o_orderkey
// (distribution-incompatible with the join). Shows the serial memo, the
// data-movement alternatives the PDW optimizer considers (shuffle either
// side, broadcast either side), the winning plan, and the executed DSQL.
//
//   $ ./build/examples/distributed_join

#include <cstdio>

#include "pdw/compiler.h"
#include "pdw/dsql.h"
#include "tpch/tpch.h"

using namespace pdw;

int main() {
  Appliance appliance(Topology{8});
  Session session = appliance.Connect();
  Status s = tpch::CreateTpchTables(&appliance);
  if (!s.ok()) { std::printf("%s\n", s.ToString().c_str()); return 1; }
  tpch::TpchConfig cfg;
  cfg.scale = 0.1;
  s = tpch::LoadTpch(&appliance, cfg);
  if (!s.ok()) { std::printf("%s\n", s.ToString().c_str()); return 1; }

  const char* sql =
      "SELECT c_custkey, o_orderdate FROM orders, customer "
      "WHERE o_custkey = c_custkey AND o_totalprice > 100";

  auto comp = CompilePdwQuery(appliance.shell(), sql);
  if (!comp.ok()) {
    std::printf("compile failed: %s\n", comp.status().ToString().c_str());
    return 1;
  }

  std::printf("serial search space (MEMO) from the shell-database "
              "compilation:\n%s\n", comp->serial.memo->ToString().c_str());

  // The alternatives the parallel optimizer weighed for the join group.
  PdwOptimizer optimizer(comp->serial.memo.get(),
                         appliance.shell().topology());
  auto plan = optimizer.Optimize();
  if (!plan.ok()) {
    std::printf("optimize failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("data-movement alternatives per memo group "
              "(the paper's groups 5/6 are the MOVE entries):\n");
  for (int g = 0; g < comp->serial.memo->num_groups(); ++g) {
    for (const auto& o : optimizer.group_options(g)) {
      if (!o.is_enforcer) continue;
      std::printf("  group %d: MOVE %-22s -> %-16s cumulative cost %.6f\n", g,
                  DmsOpKindToString(o.move_kind), o.prop.ToString().c_str(),
                  o.cost);
    }
  }

  std::printf("\nchosen parallel plan (cost %.6f):\n%s\n", plan->cost,
              PlanTreeToString(*plan->plan).c_str());

  auto result = session.Run(sql);
  if (!result.ok()) {
    std::printf("execution failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("DSQL execution (matches §2.4's two-step example):\n%s\n",
              result->dsql.ToString().c_str());

  auto ref = appliance.ExecuteReference(sql);
  std::printf("%zu rows; matches reference: %s\n", result->rows.size(),
              ref.ok() && RowSetsEqual(result->rows, ref->rows) ? "YES" : "NO");
  return 0;
}
