// Reproduces the §2.5 claim: parallelizing the best serial plan is not
// enough. For the Customer/Orders/Lineitem join (customer distributed on
// custkey; orders and lineitem on orderkey) the best serial plan joins the
// small tables first, while the best parallel plan exploits the
// orders-lineitem collocation. The bench sweeps node counts and scales and
// reports modeled DMS cost, actual bytes moved and wall time for both
// plans, plus the chosen join orders.

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/baseline.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

const char* kQuery =
    "SELECT c_name, l_quantity FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey";

// Same shape, with a selective lineitem filter: the collocated
// orders-lineitem join shrinks the stream before customer joins in, which
// is exactly where the distribution-aware order pays off most.
const char* kFilteredQuery =
    "SELECT c_name, l_quantity FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
    "AND l_quantity >= 49";

/// Renders the logical join grouping, e.g. "((customer*orders)*lineitem)".
std::string JoinGrouping(const PlanNode& n) {
  if (n.kind == PhysOpKind::kTableScan) return n.table_name;
  if (n.kind == PhysOpKind::kHashJoin ||
      n.kind == PhysOpKind::kNestedLoopJoin) {
    // Hash joins build on the right; show the logical pair regardless of
    // build side, sorted for readability.
    std::string l = JoinGrouping(*n.children[0]);
    std::string r = JoinGrouping(*n.children[1]);
    return "(" + l + "*" + r + ")";
  }
  std::string out;
  for (const auto& c : n.children) {
    std::string s = JoinGrouping(*c);
    if (!s.empty()) out = s;
  }
  return out;
}

void RunSweep(const char* label, const char* query,
              bench::ProfileJsonSink* sink) {
  std::printf("\n--- %s ---\n", label);
  std::printf(
      "%-6s %-6s | %-34s %-34s | %12s %12s %8s | %12s %12s %8s\n",
      "nodes", "scale", "serial join grouping", "PDW join grouping",
      "base cost", "pdw cost", "ratio", "base bytes", "pdw bytes", "ratio");

  for (int nodes : {2, 4, 8, 16}) {
    for (double scale : {0.05, 0.2}) {
      auto appliance = bench::MakeTpchAppliance(nodes, scale);
      Session session = appliance->Connect();
      auto comp = CompilePdwQuery(appliance->shell(), query);
      if (!comp.ok()) {
        std::printf("compile failed: %s\n", comp.status().ToString().c_str());
        continue;
      }
      auto baseline = BuildSerialBaseline(comp->serial.memo.get(),
                                          appliance->shell().topology());
      if (!baseline.ok()) {
        std::printf("baseline failed: %s\n",
                    baseline.status().ToString().c_str());
        continue;
      }
      std::string serial_order = JoinGrouping(*baseline->serial_plan);
      std::string pdw_order = JoinGrouping(*comp->parallel.plan);

      auto base_run =
          appliance->ExecutePlan(*baseline->plan, comp->output_names);
      auto pdw_run =
          appliance->ExecutePlan(*comp->parallel.plan, comp->output_names);
      if (!base_run.ok() || !pdw_run.ok()) {
        std::printf("execution failed\n");
        continue;
      }
      if (sink->enabled()) {
        // Full pipeline run with per-operator actuals for the JSON dump.
        QueryOptions analyze;
        analyze.observe.collect_operator_actuals = true;
        auto analyzed = session.Run(query, analyze);
        if (analyzed.ok()) {
          sink->Add(std::string(label) + "/nodes=" + std::to_string(nodes) +
                        "/scale=" + std::to_string(scale),
                    analyzed->profile);
        }
      }
      double base_bytes = base_run->dms_metrics.network.bytes +
                          base_run->dms_metrics.bulkcopy.bytes;
      double pdw_bytes = pdw_run->dms_metrics.network.bytes +
                         pdw_run->dms_metrics.bulkcopy.bytes;
      std::printf(
          "%-6d %-6.2f | %-34s %-34s | %12.5f %12.5f %7.2fx | %12.0f %12.0f "
          "%7.2fx\n",
          nodes, scale, serial_order.c_str(), pdw_order.c_str(),
          baseline->cost, comp->parallel.cost,
          comp->parallel.cost > 0 ? baseline->cost / comp->parallel.cost
                                  : 0.0,
          base_bytes, pdw_bytes,
          pdw_bytes > 0 ? base_bytes / pdw_bytes : 0.0);
    }
  }
}

void Run(bench::ProfileJsonSink* sink) {
  bench::Header(
      "CLAIM-SERIAL (§2.5): best parallel plan != parallelized best "
      "serial plan");
  RunSweep("3-way join (paper's example)", kQuery, sink);
  RunSweep("3-way join with selective lineitem filter", kFilteredQuery, sink);

  // Show the two plans once, for the report.
  auto appliance = bench::MakeTpchAppliance(8, 0.2);
  auto comp = CompilePdwQuery(appliance->shell(), kQuery);
  if (!comp.ok()) return;
  auto baseline = BuildSerialBaseline(comp->serial.memo.get(),
                                      appliance->shell().topology());
  if (baseline.ok()) {
    std::printf("\nbest serial plan (single-node optimal):\n%s",
                PlanTreeToString(*baseline->serial_plan).c_str());
    std::printf("\nparallelized serial plan (baseline):\n%s",
                PlanTreeToString(*baseline->plan).c_str());
    std::printf("\nPDW plan (search over the full space):\n%s",
                PlanTreeToString(*comp->parallel.plan).c_str());
  }
}

}  // namespace
}  // namespace pdw

int main(int argc, char** argv) {
  pdw::bench::ProfileJsonSink sink(argc, argv);
  pdw::Run(&sink);
  sink.Flush();
  return 0;
}
