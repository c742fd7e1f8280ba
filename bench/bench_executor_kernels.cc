// Row-engine vs batch-engine microkernels: each kernel's SQL is compiled
// once, and that one plan runs on the row oracle (ExecuteRowPlan) and on
// the batch engine (ExecutePlan) over identical synthetic tables, timing
// filter, hash-join, hash-aggregate and expression-projection kernels.
// Compile time is outside both timings. Prints a speedup table;
// `--json[=path]` additionally emits machine-readable results for
// tracking.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/local_engine.h"
#include "optimizer/serial_optimizer.h"

namespace pdw {
namespace {

constexpr size_t kBigRows = 200000;
constexpr size_t kDimRows = 2000;
constexpr int kIters = 5;

/// big(a INT, b INT, g INT, v DOUBLE, s VARCHAR): ~5% NULLs, g has 128
/// distinct groups, b joins against dim.x.
void LoadTables(LocalEngine* engine) {
  auto check = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      std::abort();
    }
  };
  check(engine
            ->ExecuteSql("CREATE TABLE big (a INT, b INT, g INT, v DOUBLE, "
                         "s VARCHAR(16))")
            .status());
  check(engine->ExecuteSql("CREATE TABLE dim (x INT, y INT, w DOUBLE)")
            .status());

  std::mt19937 rng(42);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const char* words[] = {"alpha", "beta", "gamma", "delta"};
  RowVector big;
  big.reserve(kBigRows);
  for (size_t i = 0; i < kBigRows; ++i) {
    Row r;
    r.push_back(Datum::Int(static_cast<int64_t>(i)));
    r.push_back(pick(0, 19) == 0 ? Datum::Null()
                                 : Datum::Int(pick(0, static_cast<int>(kDimRows) * 2)));
    r.push_back(Datum::Int(pick(0, 127)));
    r.push_back(pick(0, 19) == 0 ? Datum::Null()
                                 : Datum::Double(pick(0, 10000) / 100.0));
    r.push_back(Datum::Varchar(words[pick(0, 3)]));
    big.push_back(std::move(r));
  }
  check(engine->InsertRows("big", std::move(big)));

  RowVector dim;
  dim.reserve(kDimRows);
  for (size_t i = 0; i < kDimRows; ++i) {
    Row r;
    r.push_back(Datum::Int(static_cast<int64_t>(i)));
    r.push_back(Datum::Int(pick(0, 9)));
    r.push_back(Datum::Double(pick(0, 1000) / 10.0));
    dim.push_back(std::move(r));
  }
  check(engine->InsertRows("dim", std::move(dim)));
}

struct Kernel {
  const char* name;
  const char* sql;
};

const Kernel kKernels[] = {
    {"filter",
     "SELECT a, b FROM big WHERE v > 25.0 AND g < 96 AND b IS NOT NULL"},
    {"project",
     "SELECT a * 2 + g AS e1, v * 1.1 AS e2, "
     "CASE WHEN v > 50 THEN 'hi' ELSE s END AS e3 FROM big"},
    {"hash_join", "SELECT a, y FROM big JOIN dim ON b = x WHERE w > 10.0"},
    {"hash_agg",
     "SELECT g, COUNT(*) AS c, SUM(v) AS sv, AVG(v) AS av, MIN(a) AS mn "
     "FROM big GROUP BY g"},
};

using EntryPoint = Result<RowVector> (*)(const PlanNode&,
                                         const TableProvider&, ExecProfile*);

[[noreturn]] void Die(const char* sql, const Status& s) {
  std::fprintf(stderr, "%s\n%s\n", sql, s.ToString().c_str());
  std::abort();
}

/// The kernel's plan, compiled once against the engine's catalog.
PlanNodePtr CompileKernel(const LocalEngine& engine, const char* sql) {
  auto comp = CompileQuery(engine.catalog(), sql);
  if (!comp.ok()) Die(sql, comp.status());
  auto plan = ExtractBestSerialPlan(comp->memo.get());
  if (!plan.ok()) Die(sql, plan.status());
  return std::move(*plan);
}

/// Best-of-kIters wall time of one plan on one engine entry point, in
/// milliseconds.
double BestMs(EntryPoint run, const Kernel& k, const PlanNode& plan,
              const LocalEngine& engine, size_t* rows_out) {
  double best = 1e100;
  for (int i = 0; i < kIters; ++i) {
    double t0 = bench::NowSeconds();
    auto r = run(plan, engine, nullptr);
    double ms = (bench::NowSeconds() - t0) * 1e3;
    if (!r.ok()) Die(k.sql, r.status());
    *rows_out = r->size();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace
}  // namespace pdw

int main(int argc, char** argv) {
  using namespace pdw;
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

  LocalEngine engine;
  LoadTables(&engine);

  bench::Header("executor kernels: row engine vs batch engine");
  std::printf("%zu-row fact table, %zu-row dimension, best of %d runs\n\n",
              kBigRows, kDimRows, kIters);
  std::printf("%-12s %12s %12s %10s %10s\n", "kernel", "row (ms)",
              "batch (ms)", "speedup", "rows");

  std::string json_out = "{\"kernels\":[";
  bool first = true;
  for (const Kernel& k : kKernels) {
    size_t rows = 0;
    PlanNodePtr plan = CompileKernel(engine, k.sql);
    double row_ms = BestMs(&ExecuteRowPlan, k, *plan, engine, &rows);
    double batch_ms = BestMs(&ExecutePlan, k, *plan, engine, &rows);
    double speedup = row_ms / batch_ms;
    std::printf("%-12s %12.2f %12.2f %9.2fx %10zu\n", k.name, row_ms,
                batch_ms, speedup, rows);
    if (!first) json_out += ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"row_ms\":%.3f,\"batch_ms\":%.3f,"
                  "\"speedup\":%.3f,\"rows\":%zu}",
                  k.name, row_ms, batch_ms, speedup, rows);
    json_out += buf;
  }
  json_out += "]}\n";

  if (json) {
    if (json_path.empty()) {
      std::fputs(json_out.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      std::fputs(json_out.c_str(), f);
      std::fclose(f);
      std::printf("\nwrote kernel results to %s\n", json_path.c_str());
    }
  }
  return 0;
}
