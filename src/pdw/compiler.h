#ifndef PDW_PDW_COMPILER_H_
#define PDW_PDW_COMPILER_H_

#include <string>
#include <vector>

#include "optimizer/serial_optimizer.h"
#include "pdw/pdw_optimizer.h"

namespace pdw {

/// Knobs for the full compilation pipeline.
struct PdwCompilerOptions {
  MemoOptions memo;
  PdwOptimizerOptions pdw;
};

/// Everything the control node produces for one query (Fig. 2): the serial
/// compilation artifacts (whose memo the PDW optimizer searched) and the
/// PDW parallel plan.
struct PdwCompilation {
  std::vector<std::string> output_names;
  CompilationResult serial;
  PdwPlanResult parallel;
  /// Wall seconds of every Fig. 2 component, in pipeline order (parse,
  /// bind, normalize, memo, pdw_optimize); the observability substrate of
  /// EXPLAIN ANALYZE.
  std::vector<std::pair<std::string, double>> phase_seconds;
};

/// Runs the whole control-node compilation pipeline against the shell
/// catalog: parse -> bind -> normalize -> serial memo -> bottom-up parallel
/// optimization of that memo -> plan. The paper's XML boundary between the
/// serial and PDW optimizers (Fig. 2 components 3-4a) is the codec in
/// xmlio/memo_xml.h; one process needs no copy of the memo, so the pipeline
/// hands it over directly.
Result<PdwCompilation> CompilePdwQuery(const Catalog& shell_catalog,
                                       const std::string& sql,
                                       const PdwCompilerOptions& options = {});

}  // namespace pdw

#endif  // PDW_PDW_COMPILER_H_
