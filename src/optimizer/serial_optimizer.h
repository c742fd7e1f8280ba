#ifndef PDW_OPTIMIZER_SERIAL_OPTIMIZER_H_
#define PDW_OPTIMIZER_SERIAL_OPTIMIZER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/binder.h"
#include "algebra/normalizer.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "optimizer/memo.h"
#include "plan/plan_node.h"

namespace pdw {

/// Everything the "SQL Server compilation" stage produces against the shell
/// database (paper Fig. 2, component 2): the bound + normalized tree, the
/// statistics context, and the populated MEMO search space.
struct CompilationResult {
  std::vector<std::string> output_names;
  /// See BoundQuery::visible_columns.
  int visible_columns = -1;
  LogicalOpPtr normalized;
  std::shared_ptr<StatsContext> stats;
  std::shared_ptr<CardinalityEstimator> estimator;
  std::shared_ptr<Memo> memo;
  /// Wall seconds of each stage (bind, normalize, memo), in order.
  std::vector<std::pair<std::string, double>> phase_seconds;
};

/// Parses, binds, normalizes and explores a SELECT against `catalog`
/// (which, on the control node, is the shell database).
Result<CompilationResult> CompileQuery(const Catalog& catalog,
                                       const std::string& sql,
                                       const MemoOptions& memo_options = {});

/// Same pipeline for an already-parsed statement.
Result<CompilationResult> CompileSelect(const Catalog& catalog,
                                        const sql::SelectStatement& stmt,
                                        const MemoOptions& memo_options = {});

/// Computes serial winners for every group reachable from the memo root
/// (single-node cost model: scans, hash joins, aggregation, sort) and
/// returns the best serial plan — what a non-PDW SQL Server would run, and
/// the input to the parallelize-the-serial-plan baseline.
Result<PlanNodePtr> ExtractBestSerialPlan(Memo* memo);

/// Serial cost of one group's winner (computes winners on demand).
double SerialWinnerCost(Memo* memo, GroupId gid);

/// Builds a PlanNode for a logical payload with physical kind selection
/// (joins pick hash vs nested-loop from the equi keys). Shared with the
/// PDW enumerator. `children` supply output bindings for key extraction.
PlanNodePtr PlanNodeFromPayload(const LogicalOp& payload,
                                std::vector<PlanNodePtr> children,
                                double cardinality, double row_width);

}  // namespace pdw

#endif  // PDW_OPTIMIZER_SERIAL_OPTIMIZER_H_
