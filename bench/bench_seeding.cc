// CLAIM-SEED (§3.1): for very large search spaces the serial optimizer
// times out, and the initial plans "seeded" into the MEMO dominate the
// space considered; PDW therefore seeds distribution-aware (collocated)
// join orders. This bench compiles join queries under a tiny exploration
// budget with seeding on and off and compares the parallel plan costs —
// with a full budget as the reference point.

#include <cstdio>

#include "bench/bench_util.h"
#include "pdw/compiler.h"

namespace pdw {
namespace {

struct SeedCase {
  const char* name;
  const char* sql;
};

/// A shell database where every table is large, so the cheap
/// broadcast-a-small-table rescue is unavailable and the seeded join order
/// really matters: big1(a,c) and big2(a) are collocated on a; big3(c) is
/// distributed on c.
Catalog MakeBigShell(int nodes) {
  Catalog shell(Topology{nodes});
  // The a-columns are near-unique (key-key join, no fan-out); the
  // c-columns have low NDV, so joining through c first explodes the
  // intermediate. Every table is too big to broadcast casually.
  auto add = [&](const char* name, std::vector<ColumnDef> cols,
                 const char* dist_col, double rows) {
    TableDef def;
    def.name = name;
    def.schema = Schema(std::move(cols));
    def.distribution = DistributionSpec::HashOn(dist_col);
    def.stats.row_count = rows;
    for (int i = 0; i < def.schema.num_columns(); ++i) {
      const std::string& cname = def.schema.column(i).name;
      ColumnStats cs;
      cs.row_count = rows;
      cs.distinct_count = cname[0] == 'a' ? rows
                          : cname[0] == 'c' ? 1e5
                                            : rows / 2;
      cs.avg_width = 8;
      def.stats.columns[cname] = cs;
    }
    Status s = shell.CreateTable(std::move(def));
    (void)s;
  };
  add("big3", {{"c3", TypeId::kInt, false}, {"v3", TypeId::kInt, false}},
      "c3", 1e6);
  add("big1",
      {{"a1", TypeId::kInt, false}, {"c1", TypeId::kInt, false},
       {"v1", TypeId::kInt, false}},
      "a1", 1e6);
  add("big2", {{"a2", TypeId::kInt, false}, {"v2", TypeId::kInt, false}},
      "a2", 1e6);
  return shell;
}

void Run() {
  bench::Header("CLAIM-SEED: exploration timeout + distribution-aware seeding");
  auto appliance = bench::MakeTpchAppliance(8, 0.2);

  const SeedCase cases[] = {
      {"col3",
       "SELECT c_name, l_quantity FROM customer, orders, lineitem "
       "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"},
      {"star5",
       "SELECT c_name, p_name FROM customer, orders, lineitem, part, "
       "supplier WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
       "AND l_partkey = p_partkey AND l_suppkey = s_suppkey"},
      {"snow6",
       "SELECT n_name, SUM(l_extendedprice) AS rev FROM customer, orders, "
       "lineitem, supplier, nation, region WHERE c_custkey = o_custkey AND "
       "l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND c_nationkey = "
       "s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = "
       "r_regionkey GROUP BY n_name"},
  };

  std::printf("\n%-7s | %-12s | %10s | %10s | %8s | %s\n", "query", "mode",
              "memo exprs", "pdw cost", "vs full", "budget hit");
  for (const SeedCase& c : cases) {
    double full_cost = 0;
    for (int mode = 0; mode < 3; ++mode) {
      PdwCompilerOptions opts;
      const char* label;
      if (mode == 0) {
        label = "full budget";
      } else if (mode == 1) {
        label = "tiny+seed";
        opts.memo.expr_budget = 8;  // force the timeout path
        opts.memo.seed_distribution_aware = true;
      } else {
        label = "tiny-seed";
        opts.memo.expr_budget = 8;
        opts.memo.seed_distribution_aware = false;
      }
      auto comp = CompilePdwQuery(appliance->shell(), c.sql, opts);
      if (!comp.ok()) {
        std::printf("%-7s | %-12s | compile failed: %s\n", c.name, label,
                    comp.status().ToString().c_str());
        continue;
      }
      if (mode == 0) full_cost = comp->parallel.cost;
      std::printf("%-7s | %-12s | %10zu | %10.6f | %7.2fx | %s\n", c.name,
                  label, comp->serial.memo->num_exprs(), comp->parallel.cost,
                  full_cost > 0 ? comp->parallel.cost / full_cost : 1.0,
                  comp->serial.memo->budget_exhausted() ? "yes" : "no");
    }
  }
  // The decisive case: three equally large tables where only one pair is
  // collocated. The broadcast rescue is too expensive, so the seed decides
  // everything when the budget is exhausted.
  std::printf("\nall-large 3-way join (no cheap broadcast rescue):\n");
  Catalog big_shell = MakeBigShell(8);
  const char* big_sql =
      "SELECT v1, v2, v3 FROM big3, big1, big2 "
      "WHERE big1.c1 = big3.c3 AND big1.a1 = big2.a2";
  double full_cost = 0;
  for (int mode = 0; mode < 3; ++mode) {
    PdwCompilerOptions opts;
    const char* label;
    if (mode == 0) {
      label = "full budget";
    } else if (mode == 1) {
      label = "tiny+seed";
      opts.memo.expr_budget = 1;
      opts.memo.seed_distribution_aware = true;
    } else {
      label = "tiny-seed";
      opts.memo.expr_budget = 1;
      opts.memo.seed_distribution_aware = false;
    }
    auto comp = CompilePdwQuery(big_shell, big_sql, opts);
    if (!comp.ok()) {
      std::printf("%-7s | %-12s | compile failed: %s\n", "big3", label,
                  comp.status().ToString().c_str());
      continue;
    }
    if (mode == 0) full_cost = comp->parallel.cost;
    std::printf("%-7s | %-12s | %10zu | %10.6f | %7.2fx | %s\n", "big3",
                label, comp->serial.memo->num_exprs(), comp->parallel.cost,
                full_cost > 0 ? comp->parallel.cost / full_cost : 1.0,
                comp->serial.memo->budget_exhausted() ? "yes" : "no");
  }

  std::printf(
      "\ninterpretation: under a timeout, the distribution-aware seed keeps "
      "the collocated join order in the space, so the parallel plan stays "
      "near the full-budget optimum; the size-only seed can lose it.\n");
}

}  // namespace
}  // namespace pdw

int main() {
  pdw::Run();
  return 0;
}
