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
/// it: the batch engine shares its columns, the row oracle converts them
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
/// tree. Filled only when a profile is passed to ExecutePlan (or
/// ExecuteRowPlan); timings are inclusive of children (EXPLAIN ANALYZE
/// convention).
struct ExecProfile {
  std::vector<obs::OperatorProfile> operators;
};

/// Executes a physical plan (without Move nodes) over stored tables on the
/// vectorized batch engine: scans, filters, projections, hash/nested-loop
/// joins of all logical join types, hash aggregation (full/local/global
/// phases behave identically at this level — the phase difference is in
/// which rows each node holds), sort and limit. This is the per-node "SQL
/// Server" execution backbone (batch_executor.cc). Each operator emits one
/// column batch; a scan shares the stored table's columns.
///
/// With a non-null `profile`, every operator records its emitted row count,
/// inclusive wall time and filter/probe selectivity, and the root bumps the
/// global `executor.rows_out` counter. With nullptr the instrumented path
/// is skipped entirely.
///
/// The whole plan runs on the calling thread and starts no pool task: a
/// node's plan is one node task, and the appliance's parallelism is the
/// fan-out over nodes (Fig. 1).
Result<RowVector> ExecutePlan(const PlanNode& plan,
                              const TableProvider& tables,
                              ExecProfile* profile = nullptr);

/// The row-at-a-time Volcano interpreter of the same operator semantics
/// (executor.cc): the reference oracle the batch engine is tested against.
/// Its results are multiset-identical to ExecutePlan's on every plan. Only
/// tests and bench_executor_kernels call it; a non-null `profile` records
/// per-operator row counts and inclusive wall times.
Result<RowVector> ExecuteRowPlan(const PlanNode& plan,
                                 const TableProvider& tables,
                                 ExecProfile* profile = nullptr);

}  // namespace pdw

#endif  // PDW_ENGINE_EXECUTOR_H_
