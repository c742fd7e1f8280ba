#ifndef PDW_PDW_DSQL_H_
#define PDW_PDW_DSQL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "pdw/sql_gen.h"
#include "plan/plan_node.h"

namespace pdw {

/// Kind of one DSQL plan step (§2.4): DMS operations move intermediate
/// results between nodes into temp tables; the final Return operation
/// streams result rows back to the client.
enum class DsqlStepKind { kDms, kReturn };

/// One serially-executed step of a DSQL plan.
struct DsqlStep {
  DsqlStepKind kind = DsqlStepKind::kDms;

  /// SQL text executed against the local DBMS instance of every node that
  /// hosts the step's source data.
  std::string sql;
  /// Where the source SQL runs (compute nodes when distributed/replicated,
  /// the control node when kControl).
  DistributionProperty source_distribution;

  // --- kDms only ---
  DmsOpKind move_kind = DmsOpKind::kShuffle;
  /// Destination temp table name (TEMP_ID_k) and its schema.
  std::string dest_table;
  Schema dest_schema;
  /// Ordinals (within the source SQL's output) of the hash columns for
  /// Shuffle/Trim routing.
  std::vector<int> hash_column_ordinals;
  /// The step's source SQL is a partial (local-phase) aggregate, i.e. the
  /// move ships pre-aggregated rows — either the pushed-below-a-join
  /// partial of PR 9 or the classic two-phase local aggregate. Profiles
  /// report rows_in/rows_out/reduction for such steps.
  bool preagg = false;
  double preagg_rows_in = 0;  ///< Estimated global input rows of the partial.

  // --- kReturn only ---
  /// Global result finalization applied while assembling per-node streams:
  /// ordinals into the result row, ascending flags, optional row limit.
  std::vector<std::pair<int, bool>> merge_sort;
  int64_t final_limit = -1;
  /// Deduplicate identical per-node streams (replicated source).
  bool read_single_node = false;

  double estimated_rows = 0;
  double estimated_cost = 0;
};

/// A complete DSQL plan: steps executed one at a time (no pipelining
/// between steps — intermediate results are always materialized, §3.3.1).
struct DsqlPlan {
  std::vector<DsqlStep> steps;
  std::vector<std::string> output_names;
  /// Client-visible leading columns of the final result (-1 = all); hidden
  /// trailing ORDER BY carriers are trimmed during result assembly.
  int visible_columns = -1;

  /// Paper-style rendering (cf. Fig. 3(e) / Fig. 7): one block per step.
  std::string ToString() const;
};

/// Converts an optimized parallel plan (with Move nodes) into a DSQL plan:
/// each Move becomes a DMS step whose source SQL is generated from the
/// subtree below it (earlier steps' results appearing as temp-table
/// scans), and the remaining top fragment becomes the Return step.
Result<DsqlPlan> GenerateDsql(const PlanNode& plan,
                              std::vector<std::string> output_names,
                              const std::string& database_prefix = "tpch",
                              int visible_columns = -1);

}  // namespace pdw

#endif  // PDW_PDW_DSQL_H_
