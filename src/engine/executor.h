#ifndef PDW_ENGINE_EXECUTOR_H_
#define PDW_ENGINE_EXECUTOR_H_

#include <string>

#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"
#include "obs/query_profile.h"
#include "plan/plan_node.h"

namespace pdw {

struct ColumnBatch;  // engine/batch.h

/// Storage for one table as seen by the executor: its schema and its rows
/// as one column batch, the table's only stored form. Both engines scan
/// it: the batch engine shares its columns, the row engine converts them
/// to rows.
struct TableData {
  const Schema* schema = nullptr;
  const ColumnBatch* columns = nullptr;
};

/// Supplies table contents to the executor (implemented by LocalEngine's
/// storage and its per-query system-view overlay).
class TableProvider {
 public:
  virtual ~TableProvider() = default;
  virtual Result<TableData> GetTableData(const std::string& name) const = 0;
};

/// Per-operator actuals of one plan execution, pre-order over the plan
/// tree. Filled only when a profile is passed to ExecutePlan; timings are
/// inclusive of children (EXPLAIN ANALYZE convention).
struct ExecProfile {
  std::vector<obs::OperatorProfile> operators;
};

/// Which local execution engine runs the plan. Both engines implement the
/// same operator semantics and produce multiset-identical results; the row
/// engine is the simple interpreter kept as the reference oracle, the batch
/// engine is the vectorized production path.
enum class EngineKind {
  kRow,    ///< Row-at-a-time Volcano interpreter.
  kBatch,  ///< Vectorized batches + compiled expressions.
};

/// Per-execution knobs. The default runs the batch engine.
struct ExecOptions {
  EngineKind engine = EngineKind::kBatch;
};

/// Executes a physical plan (without Move nodes) over stored tables:
/// scans, filters, projections, hash/nested-loop joins of all logical join
/// types, hash aggregation (full/local/global phases behave identically at
/// this level — the phase difference is in which rows each node holds),
/// sort and limit. This is the per-node "SQL Server" execution backbone.
///
/// `options.engine` picks the interpreter: the row-at-a-time reference
/// engine, or the vectorized batch engine (default).
///
/// With a non-null `profile`, every operator records its emitted row count
/// and inclusive wall time (and bumps the global `executor.rows_out`
/// counter at the root); the batch engine additionally records
/// filter/probe selectivity. With nullptr the instrumented path is skipped
/// entirely.
///
/// Both engines run the whole plan on the calling thread and start no pool
/// task: a node's plan is one node task, and the appliance's parallelism
/// is the fan-out over nodes (Fig. 1).
Result<RowVector> ExecutePlan(const PlanNode& plan,
                              const TableProvider& tables,
                              ExecProfile* profile = nullptr,
                              const ExecOptions& options = {});

/// The batch-engine entry point (batch_executor.cc); ExecutePlan dispatches
/// here when options.engine == kBatch. Each operator emits one column
/// batch; a scan shares the stored table's columns.
Result<RowVector> ExecuteBatchPlan(const PlanNode& plan,
                                   const TableProvider& tables,
                                   ExecProfile* profile);

}  // namespace pdw

#endif  // PDW_ENGINE_EXECUTOR_H_
