// Compile-time scaling of the memo optimizer. Two result tables:
//
//  SCALE — full-DP join enumeration on star/chain/clique stress queries:
//  compile time with the relation cap and expression budget lifted.
//
//  BEAM — graduated degradation on 10–25-relation queries with stock
//  knobs: beam compile time, and where full DP is still feasible, the
//  plan-cost regression of the beam plan (target: within 10%).
//
// `--json[=path]` dumps both tables as one JSON document; the committed
// baseline lives at bench/BENCH_optimizer.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "optimizer/join_stress.h"
#include "optimizer/serial_optimizer.h"

namespace pdw {
namespace {

constexpr int kReps = 3;

MemoOptions FullDpOptions() {
  MemoOptions opts;
  opts.max_dp_relations = 18;
  opts.expr_budget = 20'000'000;
  return opts;
}

double BestCompileMs(const JoinStressQuery& q, const MemoOptions& opts,
                     double* cost = nullptr, bool* beam_used = nullptr) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Result<CompilationResult> r(Status::Internal("not compiled"));
    double ms = bench::TimeMs([&] { r = CompileQuery(q.catalog, q.sql, opts); });
    if (!r.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    best = std::min(best, ms);
    if (rep == 0) {
      if (beam_used != nullptr) *beam_used = r->memo->beam_used();
      if (cost != nullptr) {
        auto plan = ExtractBestSerialPlan(r->memo.get());
        *cost = plan.ok() ? SerialWinnerCost(r->memo.get(), r->memo->root())
                          : -1;
      }
    }
  }
  return best;
}

struct ScaleRow {
  JoinStressShape shape;
  int relations;
  double compile_ms = 0;
};

struct BeamRow {
  JoinStressShape shape;
  int relations;
  double beam_ms = 0;
  double beam_cost = -1;
  double full_ms = -1;   ///< -1: full DP infeasible at this size.
  double full_cost = -1;
  bool beam_used = false;
};

void Run(bool json_enabled, const std::string& json_path) {
  bench::Header("OPT-SCALE: memo enumeration, full DP");
  std::printf("%-8s %4s | %10s\n", "shape", "rels", "compile ms");

  const ScaleRow scale_cases[] = {
      {JoinStressShape::kChain, 18},
      {JoinStressShape::kStar, 15},
      {JoinStressShape::kClique, 12},
  };
  std::vector<ScaleRow> scale;
  for (ScaleRow row : scale_cases) {
    JoinStressQuery q =
        MakeJoinStressQuery({row.shape, row.relations, /*seed=*/42});
    row.compile_ms = BestCompileMs(q, FullDpOptions());
    std::printf("%-8s %4d | %10.2f\n", JoinStressShapeName(row.shape),
                row.relations, row.compile_ms);
    scale.push_back(row);
  }

  bench::Header("OPT-BEAM: graduated fallback, stock knobs (beam width 64)");
  std::printf("%-8s %4s | %10s %12s | %10s %12s | %s\n", "shape", "rels",
              "beam ms", "beam cost", "full ms", "full cost", "regression");

  // Full DP is kept as a reference only while tractable: a clique's
  // expression count grows ~3^n (12 relations ≈ 0.5M exprs), a star's
  // ~n*2^n (15 ≈ 0.5M); beyond that only the beam row is measured.
  const BeamRow beam_cases[] = {
      {JoinStressShape::kChain, 15},  {JoinStressShape::kChain, 25},
      {JoinStressShape::kStar, 10},   {JoinStressShape::kStar, 15},
      {JoinStressShape::kStar, 20},   {JoinStressShape::kStar, 25},
      {JoinStressShape::kClique, 10}, {JoinStressShape::kClique, 15},
      {JoinStressShape::kClique, 20}, {JoinStressShape::kClique, 25},
  };
  auto full_dp_feasible = [](const BeamRow& row) {
    switch (row.shape) {
      case JoinStressShape::kChain:
        return true;
      case JoinStressShape::kStar:
        return row.relations <= 15;
      case JoinStressShape::kClique:
        return row.relations <= 12;
    }
    return false;
  };

  std::vector<BeamRow> beam;
  for (BeamRow row : beam_cases) {
    JoinStressQuery q =
        MakeJoinStressQuery({row.shape, row.relations, /*seed=*/42});
    MemoOptions stock;  // max_dp_relations 9 => every case takes the beam
    row.beam_ms = BestCompileMs(q, stock, &row.beam_cost, &row.beam_used);
    if (full_dp_feasible(row)) {
      row.full_ms = BestCompileMs(q, FullDpOptions(), &row.full_cost);
    }
    if (row.full_ms >= 0) {
      std::printf("%-8s %4d | %10.2f %12.4g | %10.2f %12.4g | %+.1f%%%s\n",
                  JoinStressShapeName(row.shape), row.relations, row.beam_ms,
                  row.beam_cost, row.full_ms, row.full_cost,
                  (row.beam_cost / row.full_cost - 1) * 100,
                  row.beam_used ? "" : "  [no beam]");
    } else {
      std::printf("%-8s %4d | %10.2f %12.4g | %10s %12s | full DP infeasible\n",
                  JoinStressShapeName(row.shape), row.relations, row.beam_ms,
                  row.beam_cost, "-", "-");
    }
    beam.push_back(row);
  }

  if (!json_enabled) return;
  std::string out = "{\"bench\":\"optimizer_scaling\",\"full_dp\":[";
  for (size_t i = 0; i < scale.size(); ++i) {
    const ScaleRow& r = scale[i];
    if (i > 0) out += ",";
    out += StringFormat(
        "{\"shape\":\"%s\",\"relations\":%d,\"compile_ms\":%.3f}",
        JoinStressShapeName(r.shape), r.relations, r.compile_ms);
  }
  out += "],\"beam\":[";
  for (size_t i = 0; i < beam.size(); ++i) {
    const BeamRow& r = beam[i];
    if (i > 0) out += ",";
    out += StringFormat(
        "{\"shape\":\"%s\",\"relations\":%d,\"beam_ms\":%.3f,"
        "\"beam_used\":%s,\"beam_cost\":%.6g",
        JoinStressShapeName(r.shape), r.relations, r.beam_ms,
        r.beam_used ? "true" : "false", r.beam_cost);
    if (r.full_ms >= 0) {
      out += StringFormat(",\"full_ms\":%.3f,\"full_cost\":%.6g,"
                          "\"cost_regression\":%.6f",
                          r.full_ms, r.full_cost,
                          r.beam_cost / r.full_cost - 1);
    }
    out += "}";
  }
  out += "]}\n";
  if (json_path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote scaling results to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace pdw

int main(int argc, char** argv) {
  bool json = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      path = argv[i] + 7;
    }
  }
  pdw::Run(json, path);
  return 0;
}
