#ifndef PDW_ENGINE_LOCAL_ENGINE_H_
#define PDW_ENGINE_LOCAL_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/batch.h"
#include "engine/executor.h"
#include "optimizer/memo.h"

namespace pdw {

/// Result of one SQL execution.
struct SqlResult {
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
  RowVector rows;
};

/// Produces the current rows of a virtual table (a sys.dm_pdw_* system
/// view), matching the registered schema. Called on the querying thread at
/// scan-materialization time; must be thread-safe — concurrent DMV queries
/// invoke it simultaneously.
using VirtualTableFn = std::function<Result<RowVector>()>;

/// A complete single-node SQL engine: catalog + in-memory column storage +
/// parse/bind/normalize/optimize/execute pipeline. One instance runs on
/// each compute node (and on the control node) of the appliance simulator,
/// standing in for the per-node SQL Server of Fig. 1. The DSQL executor
/// feeds it the *generated SQL text*, so DSQL SQL generation is exercised
/// on the real execution path. Each table — user table or DMS temp table —
/// is stored as one ColumnBatch and nothing else: the batch engine's scans
/// share its columns, the row engine's scans and GetRows convert it to
/// rows, and ComputeLocalStats reads it.
///
/// Thread safety: concurrent ExecuteSql calls are safe, as is DDL on
/// *distinct* tables concurrent with queries — the case parallel DSQL
/// execution needs, where each in-flight query creates, fills and drops
/// its own uniquely-named temp tables. The storage map's structure is
/// guarded by a shared_mutex; the column batches of individual tables are
/// not independently locked, so loading rows into a table while another
/// thread queries that same table is not supported (loads are a setup-time
/// operation, as on the real appliance which takes table locks). Columns
/// are copy on write: a plan's shared copies of a table's columns never
/// see a later append, and concurrent scans of one table only share the
/// columns' reference counts.
class LocalEngine : public TableProvider {
 public:
  /// Every engine owns a built-in zero-row table `pdw_empty` that the SQL
  /// generator uses to render contradiction (Empty) subtrees.
  LocalEngine();

  /// DDL / storage.
  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);
  /// Registers a virtual table: `def` enters the catalog (marked
  /// is_system_view) so binding and optimization see an ordinary leaf, but
  /// no rows are stored — each SELECT touching it calls `fn` once, converts
  /// the rows to one column batch for this execution, and scans that.
  /// Registration is setup-time; queries afterwards are fully concurrent.
  Status RegisterVirtualTable(TableDef def, VirtualTableFn fn);
  /// Appends `rows` to the table's column batch.
  Status InsertRows(const std::string& name, const RowVector& rows);
  bool HasTable(const std::string& name) const { return catalog_.HasTable(name); }
  /// A row copy of the table, converted from its column batch under the
  /// shared lock.
  Result<std::unique_ptr<RowVector>> GetRows(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }

  /// Recomputes the local statistics of a table from its column batch (the
  /// per-node half of the shell database's global-statistics story, §2.2).
  Result<TableStats> ComputeLocalStats(const std::string& name,
                                       int histogram_buckets = 32);

  /// Executes a SELECT (or CREATE TABLE / DROP TABLE / INSERT) statement.
  /// A non-null `profile` collects per-operator actual row counts and
  /// timings of the SELECT's plan (EXPLAIN ANALYZE support). `exec` picks
  /// the execution engine (row reference vs vectorized batch).
  Result<SqlResult> ExecuteSql(const std::string& sql,
                               ExecProfile* profile = nullptr,
                               const ExecOptions& exec = {});

  // TableProvider:
  Result<TableData> GetTableData(const std::string& name) const override;

 private:
  mutable std::shared_mutex mu_;  ///< Guards the structure of storage_.
  Catalog catalog_;
  std::map<std::string, ColumnBatch> storage_;  // keyed by lowercase name
  std::map<std::string, VirtualTableFn> virtual_;  // keyed by lowercase name
};

}  // namespace pdw

#endif  // PDW_ENGINE_LOCAL_ENGINE_H_
