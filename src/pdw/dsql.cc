#include "pdw/dsql.h"

#include "common/string_util.h"

namespace pdw {

namespace {

/// Rewrites the plan bottom-up, cutting at every Move node: the subtree
/// below a Move is emitted as a DMS step and replaced by a TempScan of the
/// step's destination table.
class DsqlSplitter {
 public:
  DsqlSplitter(std::vector<DsqlStep>* steps, const std::string& db)
      : steps_(steps), db_(db) {}

  Result<PlanNodePtr> Split(PlanNodePtr node) {
    for (auto& c : node->children) {
      PDW_ASSIGN_OR_RETURN(c, Split(std::move(c)));
    }
    if (node->kind != PhysOpKind::kMove) return node;

    const PlanNode& source = *node->children[0];
    PDW_ASSIGN_OR_RETURN(GeneratedSql gen, GenerateSql(source, db_));

    DsqlStep step;
    step.kind = DsqlStepKind::kDms;
    step.move_kind = node->move_kind;
    step.sql = gen.sql;
    step.source_distribution = source.distribution;
    step.dest_table = "TEMP_ID_" + std::to_string(++temp_counter_);
    step.estimated_rows = node->cardinality;
    step.estimated_cost = node->move_cost;
    if (source.kind == PhysOpKind::kHashAggregate &&
        source.agg_phase == AggPhase::kLocal && !source.children.empty()) {
      step.preagg = true;
      step.preagg_rows_in = source.children[0]->cardinality;
    }
    for (size_t i = 0; i < source.output.size(); ++i) {
      step.dest_schema.AddColumn(
          ColumnDef{gen.column_names[i], source.output[i].type, true});
    }
    for (ColumnId hash_col : node->shuffle_columns) {
      int pos = FindBinding(source.output, hash_col);
      if (pos < 0) {
        return Status::Internal("shuffle column missing from move source");
      }
      step.hash_column_ordinals.push_back(pos);
    }
    steps_->push_back(std::move(step));

    // Replace the move with a scan of the temp table. Column ids survive;
    // the names switch to what the generated SQL exposed.
    auto temp = std::make_unique<PlanNode>();
    temp->kind = PhysOpKind::kTempScan;
    temp->table_name = steps_->back().dest_table;
    temp->output = source.output;
    for (size_t i = 0; i < temp->output.size(); ++i) {
      temp->output[i].name = gen.column_names[i];
    }
    temp->cardinality = node->cardinality;
    temp->row_width = node->row_width;
    temp->distribution = node->distribution;
    return PlanNodePtr(std::move(temp));
  }

 private:
  std::vector<DsqlStep>* steps_;
  std::string db_;
  int temp_counter_ = 0;
};

}  // namespace

Result<DsqlPlan> GenerateDsql(const PlanNode& plan,
                              std::vector<std::string> output_names,
                              const std::string& database_prefix,
                              int visible_columns) {
  DsqlPlan out;
  out.output_names = std::move(output_names);
  out.visible_columns = visible_columns;
  out.total_move_cost = TotalMoveCost(plan);

  DsqlSplitter splitter(&out.steps, database_prefix);
  PDW_ASSIGN_OR_RETURN(PlanNodePtr top, splitter.Split(plan.Clone()));

  // Return step. A top Sort (and Limit) determines the engine-side merge.
  DsqlStep ret;
  ret.kind = DsqlStepKind::kReturn;
  ret.source_distribution = top->distribution;
  ret.read_single_node = top->distribution.is_replicated();
  ret.estimated_rows = top->cardinality;

  const PlanNode* probe = top.get();
  if (probe->kind == PhysOpKind::kLimit) {
    ret.final_limit = probe->limit;
    if (!probe->children.empty() &&
        probe->children[0]->kind == PhysOpKind::kSort) {
      probe = probe->children[0].get();
    }
  }
  if (probe->kind == PhysOpKind::kSort) {
    for (const auto& item : probe->sort_items) {
      int pos = FindBinding(top->output, item.column);
      if (pos >= 0) ret.merge_sort.emplace_back(pos, item.ascending);
    }
  }

  PDW_ASSIGN_OR_RETURN(GeneratedSql gen, GenerateSql(*top, database_prefix));
  ret.sql = gen.sql;
  if (out.output_names.empty()) out.output_names = gen.column_names;
  out.steps.push_back(std::move(ret));
  return out;
}

std::string DsqlPlan::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps.size(); ++i) {
    const DsqlStep& s = steps[i];
    out += StringFormat("DSQL step %zu: ", i);
    if (s.kind == DsqlStepKind::kDms) {
      out += DmsOpKindToString(s.move_kind);
      if (!s.hash_column_ordinals.empty()) {
        out += StringFormat(" (hash on %s)",
                            s.dest_schema
                                .column(s.hash_column_ordinals[0])
                                .name.c_str());
      }
      out += StringFormat(" -> %s  [est. rows=%.0f, cost=%.6f]\n",
                          s.dest_table.c_str(), s.estimated_rows,
                          s.estimated_cost);
    } else {
      out += "RETURN";
      if (!s.merge_sort.empty()) out += " (merge-sorted)";
      if (s.final_limit >= 0) {
        out += StringFormat(" (top %lld)",
                            static_cast<long long>(s.final_limit));
      }
      out += StringFormat("  [est. rows=%.0f]\n", s.estimated_rows);
    }
    out += "  " + s.sql + "\n";
  }
  return out;
}

}  // namespace pdw
