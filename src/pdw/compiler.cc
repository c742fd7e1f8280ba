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
  PDW_ASSIGN_OR_RETURN(out.serial, CompileSelect(shell_catalog, *stmt,
                                                 options.memo,
                                                 options.normalizer));
  out.output_names = out.serial.output_names;
  for (const auto& phase : out.serial.phase_seconds) {
    out.phase_seconds.push_back(phase);
  }
  out.memo_groups = out.serial.memo->num_groups();
  out.memo_exprs = out.serial.memo->num_exprs();
  out.budget_exhausted = out.serial.memo->budget_exhausted();
  out.beam_used = out.serial.memo->beam_used();
  if (out.budget_exhausted) {
    // The old cliff degraded plan quality silently; make it observable.
    obs::MetricsRegistry::Global().Count("optimizer.budget_exhausted");
  }

  // Components 3-4a: XML export and PDW-side memo parse. The PDW optimizer
  // always runs against the *imported* memo so the interface boundary is
  // actually exercised.
  Memo* pdw_memo = out.serial.memo.get();
  if (options.use_xml_interface) {
    t0 = NowSeconds();
    {
      obs::TraceSpan span("compile.xml_export");
      out.memo_xml = MemoToXml(*out.serial.memo, *out.serial.stats);
      span.AddAttr("bytes", static_cast<double>(out.memo_xml.size()));
    }
    out.phase_seconds.emplace_back("xml_export", NowSeconds() - t0);
    t0 = NowSeconds();
    {
      obs::TraceSpan span("compile.xml_import");
      PDW_ASSIGN_OR_RETURN(
          out.imported, MemoFromXml(out.memo_xml, shell_catalog, options.memo));
    }
    out.phase_seconds.emplace_back("xml_import", NowSeconds() - t0);
    pdw_memo = out.imported.memo.get();
  }

  // Component 4b: bottom-up parallel optimization.
  t0 = NowSeconds();
  PdwOptimizer optimizer(pdw_memo, shell_catalog.topology(), effective.pdw);
  {
    obs::TraceSpan span("compile.pdw_optimize");
    PDW_ASSIGN_OR_RETURN(out.parallel, optimizer.Optimize());
    span.AddAttr("groups", static_cast<double>(out.parallel.groups_optimized));
    span.AddAttr("options",
                 static_cast<double>(out.parallel.options_considered));
  }
  out.phase_seconds.emplace_back("pdw_optimize", NowSeconds() - t0);

  if (options.build_baseline) {
    // §2.5 comparison: best serial plan, naively parallelized.
    t0 = NowSeconds();
    obs::TraceSpan span("compile.baseline");
    PDW_ASSIGN_OR_RETURN(out.serial_plan,
                         ExtractBestSerialPlan(out.serial.memo.get()));
    PDW_ASSIGN_OR_RETURN(
        out.baseline_plan,
        ParallelizeSerialPlan(out.serial_plan->Clone(),
                              shell_catalog.topology(),
                              optimizer.interesting().equivalence,
                              effective.pdw.cost_params));
    out.baseline_cost = TotalMoveCost(*out.baseline_plan);
    span.End();
    out.phase_seconds.emplace_back("baseline", NowSeconds() - t0);
  }
  return out;
}

}  // namespace pdw
