#include "pdw/compiler.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace pdw {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<PdwCompilation> CompilePdwQuery(const Catalog& shell_catalog,
                                       const std::string& sql,
                                       const PdwCompilerOptions& options) {
  PdwCompilation out;
  obs::TraceSpan pipeline("compile.pipeline");

  // Fig. 2 components 1-2: parse + "SQL Server" compilation against the
  // shell database. A trailing OPTION(...) hint (§3.1) steers the PDW
  // optimizer's enforcer choices.
  double t0 = NowSeconds();
  std::unique_ptr<sql::SelectStatement> stmt;
  {
    obs::TraceSpan span("compile.parse");
    PDW_ASSIGN_OR_RETURN(stmt, sql::ParseSelect(sql));
  }
  out.phase_seconds.emplace_back("parse", NowSeconds() - t0);
  PdwCompilerOptions effective = options;
  if (stmt->hint != sql::DistributionHint::kNone) {
    effective.pdw.hint = stmt->hint;
  }
  PDW_ASSIGN_OR_RETURN(out.serial,
                       CompileSelect(shell_catalog, *stmt, options.memo));
  out.output_names = out.serial.output_names;
  for (const auto& phase : out.serial.phase_seconds) {
    out.phase_seconds.push_back(phase);
  }
  if (out.serial.memo->budget_exhausted()) {
    // The old cliff degraded plan quality silently; make it observable.
    obs::MetricsRegistry::Global().Count("optimizer.budget_exhausted");
  }

  // Component 4b: bottom-up parallel optimization of the serial memo.
  t0 = NowSeconds();
  PdwOptimizer optimizer(out.serial.memo.get(), shell_catalog.topology(),
                         effective.pdw);
  {
    obs::TraceSpan span("compile.pdw_optimize");
    PDW_ASSIGN_OR_RETURN(out.parallel, optimizer.Optimize());
    span.AddAttr("groups", static_cast<double>(out.parallel.groups_optimized));
    span.AddAttr("options",
                 static_cast<double>(out.parallel.options_considered));
  }
  out.phase_seconds.emplace_back("pdw_optimize", NowSeconds() - t0);
  return out;
}

}  // namespace pdw
