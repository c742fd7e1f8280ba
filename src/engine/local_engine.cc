#include "engine/local_engine.h"

#include <mutex>
#include <numeric>
#include <shared_mutex>

#include "algebra/scalar_eval.h"
#include "common/string_util.h"
#include "optimizer/serial_optimizer.h"
#include "sql/parser.h"

namespace pdw {

namespace {

/// Per-query view over the engine's storage with virtual-table snapshots
/// layered on top: scans of registered system views read the column batch
/// materialized for *this* execution (stable for the query's duration),
/// everything else falls through to the engine.
class OverlayTableProvider : public TableProvider {
 public:
  struct Entry {
    const Schema* schema = nullptr;  ///< Points into the engine catalog.
    ColumnBatch columns;
  };

  explicit OverlayTableProvider(const TableProvider& base) : base_(base) {}

  void Add(std::string key, Entry entry) {
    tables_[std::move(key)] = std::move(entry);
  }

  Result<TableData> GetTableData(const std::string& name) const override {
    auto it = tables_.find(ToLower(name));
    if (it != tables_.end()) {
      return TableData{it->second.schema, &it->second.columns};
    }
    return base_.GetTableData(name);
  }

 private:
  const TableProvider& base_;
  std::map<std::string, Entry> tables_;
};

/// An empty batch with one column per column of `schema`.
ColumnBatch EmptyBatch(const Schema& schema) {
  std::vector<TypeId> types;
  for (const ColumnDef& col : schema.columns()) types.push_back(col.type);
  return ColumnBatch(types);
}

/// Collects the (lowercased) names of every base table the plan scans.
void CollectScanNames(const PlanNode& node, std::vector<std::string>* out) {
  if (node.kind == PhysOpKind::kTableScan) {
    out->push_back(ToLower(node.table_name));
  }
  for (const auto& child : node.children) CollectScanNames(*child, out);
}

}  // namespace

LocalEngine::LocalEngine() {
  TableDef empty;
  empty.name = "pdw_empty";
  empty.schema = Schema({{"dummy", TypeId::kInt, true}});
  Status s = CreateTable(std::move(empty));
  (void)s;
}

Status LocalEngine::CreateTable(TableDef def) {
  std::string key = ToLower(def.name);
  ColumnBatch empty = EmptyBatch(def.schema);
  PDW_RETURN_NOT_OK(catalog_.CreateTable(std::move(def)));
  std::unique_lock lock(mu_);
  storage_[key] = std::move(empty);
  return Status::OK();
}

Status LocalEngine::DropTable(const std::string& name) {
  PDW_RETURN_NOT_OK(catalog_.DropTable(name));
  std::unique_lock lock(mu_);
  storage_.erase(ToLower(name));
  virtual_.erase(ToLower(name));
  return Status::OK();
}

Status LocalEngine::RegisterVirtualTable(TableDef def, VirtualTableFn fn) {
  if (fn == nullptr) {
    return Status::InvalidArgument("virtual table needs a producer");
  }
  std::string key = ToLower(def.name);
  def.is_system_view = true;
  PDW_RETURN_NOT_OK(catalog_.CreateTable(std::move(def)));
  std::unique_lock lock(mu_);
  virtual_[key] = std::move(fn);
  return Status::OK();
}

Status LocalEngine::InsertRows(const std::string& name,
                               const RowVector& rows) {
  PDW_ASSIGN_OR_RETURN(const TableDef* def, catalog_.GetTable(name));
  for (const Row& r : rows) {
    if (static_cast<int>(r.size()) != def->schema.num_columns()) {
      return Status::InvalidArgument(
          StringFormat("row arity %zu does not match table '%s' (%d columns)",
                       r.size(), name.c_str(), def->schema.num_columns()));
    }
  }
  // The shared lock protects the map lookup; appending to this table's
  // batch is safe because no other thread touches *this* table (see the
  // class thread-safety contract).
  std::shared_lock lock(mu_);
  auto it = storage_.find(ToLower(name));
  if (it == storage_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  AppendRowsToBatch(rows, &it->second);
  return Status::OK();
}

Result<std::unique_ptr<RowVector>> LocalEngine::GetRows(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = storage_.find(ToLower(name));
  if (it == storage_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  std::vector<int> all(it->second.num_columns());
  std::iota(all.begin(), all.end(), 0);
  return std::make_unique<RowVector>(BatchToRows(it->second, all));
}

Result<TableData> LocalEngine::GetTableData(const std::string& name) const {
  PDW_ASSIGN_OR_RETURN(const TableDef* def, catalog_.GetTable(name));
  std::shared_lock lock(mu_);
  auto it = storage_.find(ToLower(name));
  if (it == storage_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return TableData{&def->schema, &it->second};
}

Result<TableStats> LocalEngine::ComputeLocalStats(const std::string& name,
                                                  int histogram_buckets) {
  PDW_ASSIGN_OR_RETURN(TableData data, GetTableData(name));
  const ColumnBatch& batch = *data.columns;
  return TableStats::Build(
      batch.rows, *data.schema,
      [&batch](size_t row, int column) {
        return batch.columns[static_cast<size_t>(column)].GetDatum(row);
      },
      histogram_buckets);
}

Result<SqlResult> LocalEngine::ExecuteSql(const std::string& sql,
                                          ExecProfile* profile) {
  PDW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  SqlResult result;
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable: {
      TableDef def;
      def.name = stmt.create_table->name;
      def.schema = stmt.create_table->schema;
      def.distribution = stmt.create_table->distribution;
      PDW_RETURN_NOT_OK(CreateTable(std::move(def)));
      return result;
    }
    case sql::StatementKind::kDropTable:
      PDW_RETURN_NOT_OK(DropTable(stmt.drop_table->name));
      return result;
    case sql::StatementKind::kInsert: {
      PDW_ASSIGN_OR_RETURN(const TableDef* def,
                           catalog_.GetTable(stmt.insert->table));
      RowVector rows;
      for (const auto& exprs : stmt.insert->rows) {
        if (static_cast<int>(exprs.size()) != def->schema.num_columns()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        Row row;
        for (size_t i = 0; i < exprs.size(); ++i) {
          // VALUES entries must be constant expressions (literals or a
          // negated literal).
          const sql::Expr* e = exprs[i].get();
          bool negate = false;
          while (e->kind == sql::ExprKind::kUnary &&
                 static_cast<const sql::UnaryExpr&>(*e).op ==
                     sql::UnaryOp::kNegate) {
            negate = !negate;
            e = static_cast<const sql::UnaryExpr&>(*e).operand.get();
          }
          if (e->kind != sql::ExprKind::kLiteral) {
            return Status::NotImplemented(
                "only literal VALUES are supported");
          }
          Datum v = static_cast<const sql::LiteralExpr&>(*e).value;
          if (negate && !v.is_null()) {
            if (v.type() == TypeId::kInt) {
              v = Datum::Int(-v.int_value());
            } else if (v.type() == TypeId::kDouble) {
              v = Datum::Double(-v.double_value());
            } else {
              return Status::InvalidArgument("cannot negate this literal");
            }
          }
          TypeId want = def->schema.column(static_cast<int>(i)).type;
          if (!v.is_null() && v.type() != want) {
            PDW_ASSIGN_OR_RETURN(v, v.CastTo(want));
          }
          row.push_back(std::move(v));
        }
        rows.push_back(std::move(row));
      }
      PDW_RETURN_NOT_OK(InsertRows(stmt.insert->table, rows));
      return result;
    }
    case sql::StatementKind::kSelect:
      break;
  }

  // SELECT: full serial pipeline against the local catalog + storage.
  PDW_ASSIGN_OR_RETURN(CompilationResult comp,
                       CompileSelect(catalog_, *stmt.select));
  PDW_ASSIGN_OR_RETURN(PlanNodePtr plan,
                       ExtractBestSerialPlan(comp.memo.get()));
  // Virtual-table scans (system views) read a snapshot materialized now,
  // for this execution only: call each view's producer once, convert its
  // rows to one column batch, and layer the snapshots over the stored
  // tables.
  std::vector<std::string> scans;
  CollectScanNames(*plan, &scans);
  OverlayTableProvider overlay(*this);
  bool has_virtual = false;
  for (const std::string& key : scans) {
    VirtualTableFn fn;
    {
      std::shared_lock lock(mu_);
      auto vit = virtual_.find(key);
      if (vit == virtual_.end()) continue;
      fn = vit->second;
    }
    PDW_ASSIGN_OR_RETURN(const TableDef* def, catalog_.GetTable(key));
    PDW_ASSIGN_OR_RETURN(RowVector rows, fn());
    OverlayTableProvider::Entry entry{&def->schema, EmptyBatch(def->schema)};
    AppendRowsToBatch(rows, &entry.columns);
    overlay.Add(key, std::move(entry));
    has_virtual = true;
  }
  const TableProvider& provider =
      has_virtual ? static_cast<const TableProvider&>(overlay) : *this;
  PDW_ASSIGN_OR_RETURN(result.rows, ExecutePlan(*plan, provider, profile));
  result.column_names = comp.output_names;
  for (const auto& b : plan->output) result.column_types.push_back(b.type);
  // Trim hidden ORDER BY carrier columns.
  if (comp.visible_columns >= 0) {
    size_t visible = static_cast<size_t>(comp.visible_columns);
    for (Row& r : result.rows) {
      if (r.size() > visible) r.resize(visible);
    }
    if (result.column_names.size() > visible) result.column_names.resize(visible);
    if (result.column_types.size() > visible) result.column_types.resize(visible);
  }
  return result;
}

}  // namespace pdw
