#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "algebra/scalar_eval.h"
#include "common/string_util.h"
#include "engine/batch.h"

namespace pdw {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ColumnOrdinalMap OrdinalsOf(const std::vector<ColumnBinding>& output) {
  ColumnOrdinalMap map;
  for (size_t i = 0; i < output.size(); ++i) {
    map[output[i].id] = static_cast<int>(i);
  }
  return map;
}

Result<RowVector> ExecuteScan(const PlanNode& node,
                              const TableProvider& tables) {
  PDW_ASSIGN_OR_RETURN(TableData data, tables.GetTableData(node.table_name));
  // Map each output binding to the stored column by name.
  std::vector<int> ordinals;
  for (const auto& b : node.output) {
    int pos = data.schema->FindColumn(b.name);
    if (pos < 0) {
      return Status::Internal("scan column '" + b.name +
                              "' missing from table '" + node.table_name +
                              "' (" + data.schema->ToString() + ")");
    }
    ordinals.push_back(pos);
  }
  return BatchToRows(*data.columns, ordinals);
}

Result<RowVector> ExecuteFilter(const PlanNode& node, RowVector input) {
  ColumnOrdinalMap ords = OrdinalsOf(node.output);
  RowVector out;
  for (Row& r : input) {
    bool keep = true;
    for (const auto& c : node.conjuncts) {
      PDW_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, r, ords));
      if (!ok) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(std::move(r));
  }
  return out;
}

Result<RowVector> ExecuteProject(const PlanNode& node, RowVector input,
                                 const std::vector<ColumnBinding>& child_cols) {
  ColumnOrdinalMap ords = OrdinalsOf(child_cols);
  RowVector out;
  out.reserve(input.size());
  for (const Row& r : input) {
    Row projected;
    projected.reserve(node.items.size());
    for (const auto& item : node.items) {
      PDW_ASSIGN_OR_RETURN(Datum v, EvalScalar(*item.expr, r, ords));
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

/// All join types. Hash join when equi keys exist, nested loops otherwise.
Result<RowVector> ExecuteJoin(const PlanNode& node, RowVector left,
                              RowVector right,
                              const std::vector<ColumnBinding>& left_cols,
                              const std::vector<ColumnBinding>& right_cols) {
  LogicalJoinType jt = node.join_type;
  bool emit_right = jt == LogicalJoinType::kInner ||
                    jt == LogicalJoinType::kCross ||
                    jt == LogicalJoinType::kLeftOuter;

  // Residual predicate evaluation happens over the concatenated row.
  std::vector<ColumnBinding> combined = left_cols;
  combined.insert(combined.end(), right_cols.begin(), right_cols.end());
  ColumnOrdinalMap combined_ords = OrdinalsOf(combined);
  ColumnOrdinalMap left_ords = OrdinalsOf(left_cols);
  ColumnOrdinalMap right_ords = OrdinalsOf(right_cols);

  auto pair_matches = [&](const Row& l, const Row& r) -> Result<bool> {
    Row both = l;
    both.insert(both.end(), r.begin(), r.end());
    for (const auto& c : node.conjuncts) {
      PDW_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, both, combined_ords));
      if (!ok) return false;
    }
    return true;
  };

  RowVector out;
  auto emit = [&](const Row& l, const Row* r) {
    Row row = l;
    if (emit_right) {
      if (r != nullptr) {
        row.insert(row.end(), r->begin(), r->end());
      } else {
        for (size_t i = 0; i < right_cols.size(); ++i) {
          row.push_back(Datum::Null());
        }
      }
    }
    out.push_back(std::move(row));
  };

  if (!node.equi_keys.empty()) {
    // Hash join: build on the right.
    std::vector<int> l_key_ords;
    std::vector<int> r_key_ords;
    for (const auto& [a, b] : node.equi_keys) {
      l_key_ords.push_back(left_ords.at(a));
      r_key_ords.push_back(right_ords.at(b));
    }
    std::unordered_multimap<size_t, const Row*> table;
    table.reserve(right.size());
    for (const Row& r : right) {
      // SQL equality never matches NULL keys.
      bool has_null = false;
      for (int o : r_key_ords) {
        if (r[static_cast<size_t>(o)].is_null()) has_null = true;
      }
      if (!has_null) table.emplace(HashRowColumns(r, r_key_ords), &r);
    }
    for (const Row& l : left) {
      bool has_null = false;
      for (int o : l_key_ords) {
        if (l[static_cast<size_t>(o)].is_null()) has_null = true;
      }
      bool matched = false;
      if (!has_null) {
        auto [lo, hi] = table.equal_range(HashRowColumns(l, l_key_ords));
        for (auto it = lo; it != hi; ++it) {
          PDW_ASSIGN_OR_RETURN(bool ok, pair_matches(l, *it->second));
          if (!ok) continue;
          matched = true;
          if (jt == LogicalJoinType::kSemi) break;
          if (jt == LogicalJoinType::kAnti) break;
          emit(l, it->second);
        }
      }
      switch (jt) {
        case LogicalJoinType::kSemi:
          if (matched) emit(l, nullptr);
          break;
        case LogicalJoinType::kAnti:
          if (!matched) emit(l, nullptr);
          break;
        case LogicalJoinType::kLeftOuter:
          if (!matched) emit(l, nullptr);
          break;
        default:
          break;
      }
    }
    return out;
  }

  // Nested loops (cross joins, non-equi conditions).
  for (const Row& l : left) {
    bool matched = false;
    for (const Row& r : right) {
      PDW_ASSIGN_OR_RETURN(bool ok, pair_matches(l, r));
      if (!ok) continue;
      matched = true;
      if (jt == LogicalJoinType::kSemi || jt == LogicalJoinType::kAnti) break;
      emit(l, &r);
    }
    switch (jt) {
      case LogicalJoinType::kSemi:
        if (matched) emit(l, nullptr);
        break;
      case LogicalJoinType::kAnti:
        if (!matched) emit(l, nullptr);
        break;
      case LogicalJoinType::kLeftOuter:
        if (!matched) emit(l, nullptr);
        break;
      default:
        break;
    }
  }
  return out;
}

/// Aggregate accumulator for one (group, aggregate) pair.
struct AggState {
  Datum value;          ///< SUM/MIN/MAX accumulator (NULL until first input).
  int64_t count = 0;    ///< COUNT / COUNT(*) accumulator.
  /// Values already folded into a DISTINCT aggregate, deduplicated by SQL
  /// value equality (DatumLess), not by rendered text: 2 and 2.0 are one
  /// distinct value even though their ToString() forms differ.
  std::set<Datum, DatumLess> distinct_seen;
};

Result<RowVector> ExecuteAggregate(const PlanNode& node, RowVector input,
                                   const std::vector<ColumnBinding>& child_cols) {
  ColumnOrdinalMap ords = OrdinalsOf(child_cols);
  std::vector<int> group_ords;
  for (ColumnId g : node.group_by) {
    auto it = ords.find(g);
    if (it == ords.end()) {
      return Status::Internal("group-by column missing from aggregate input");
    }
    group_ords.push_back(it->second);
  }

  struct GroupEntry {
    Row key_row;  ///< Full first row of the group (for group column values).
    std::vector<AggState> states;
  };
  std::unordered_map<size_t, std::vector<GroupEntry>> groups;
  std::vector<std::pair<size_t, int>> order;  // insertion order
  // Pre-size for the worst case (every row its own group) so rehashing
  // never interleaves with the accumulation loop.
  groups.reserve(input.size());
  order.reserve(input.size());

  for (const Row& r : input) {
    size_t h = group_ords.empty() ? 0 : HashRowColumns(r, group_ords);
    std::vector<GroupEntry>& bucket = groups[h];
    GroupEntry* entry = nullptr;
    int index = 0;
    for (auto& candidate : bucket) {
      bool same = true;
      for (int o : group_ords) {
        if (candidate.key_row[static_cast<size_t>(o)].Compare(
                r[static_cast<size_t>(o)]) != 0) {
          same = false;
          break;
        }
      }
      if (same) {
        entry = &candidate;
        break;
      }
      ++index;
    }
    if (entry == nullptr) {
      bucket.push_back(GroupEntry{r, std::vector<AggState>(node.aggregates.size())});
      entry = &bucket.back();
      order.emplace_back(h, index);
    }
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      const AggregateItem& item = node.aggregates[a];
      AggState& state = entry->states[a];
      if (item.func == AggFunc::kCountStar) {
        state.count += 1;
        continue;
      }
      PDW_ASSIGN_OR_RETURN(Datum v, EvalScalar(*item.arg, r, ords));
      if (v.is_null()) continue;
      if (item.distinct) {
        if (!state.distinct_seen.insert(v).second) continue;
      }
      switch (item.func) {
        case AggFunc::kCount:
          state.count += 1;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          if (state.value.is_null()) {
            state.value = v;
          } else if (state.value.type() == TypeId::kInt &&
                     v.type() == TypeId::kInt) {
            state.value = Datum::Int(state.value.int_value() + v.int_value());
          } else {
            state.value = Datum::Double(state.value.AsDouble() + v.AsDouble());
          }
          state.count += 1;
          break;
        }
        case AggFunc::kMin:
          if (state.value.is_null() || v.Compare(state.value) < 0) {
            state.value = v;
          }
          break;
        case AggFunc::kMax:
          if (state.value.is_null() || v.Compare(state.value) > 0) {
            state.value = v;
          }
          break;
        default:
          break;
      }
    }
  }

  RowVector out;
  auto emit_group = [&](const GroupEntry& entry) {
    Row row;
    for (int o : group_ords) {
      row.push_back(entry.key_row[static_cast<size_t>(o)]);
    }
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      const AggregateItem& item = node.aggregates[a];
      const AggState& state = entry.states[a];
      switch (item.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          row.push_back(Datum::Int(state.count));
          break;
        case AggFunc::kAvg:
          row.push_back(state.count > 0
                            ? Datum::Double(state.value.AsDouble() /
                                            static_cast<double>(state.count))
                            : Datum::Null());
          break;
        default:
          row.push_back(state.value);
      }
    }
    out.push_back(std::move(row));
  };

  for (const auto& [h, index] : order) {
    emit_group(groups[h][static_cast<size_t>(index)]);
  }
  // Scalar aggregate over empty input: one row of initial values.
  if (group_ords.empty() && out.empty()) {
    Row row;
    for (const auto& item : node.aggregates) {
      if (item.func == AggFunc::kCountStar || item.func == AggFunc::kCount) {
        row.push_back(Datum::Int(0));
      } else {
        row.push_back(Datum::Null());
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<RowVector> ExecuteSort(const PlanNode& node, RowVector input) {
  ColumnOrdinalMap ords = OrdinalsOf(node.output);
  std::vector<std::pair<int, bool>> keys;
  for (const auto& item : node.sort_items) {
    auto it = ords.find(item.column);
    if (it == ords.end()) {
      return Status::Internal("sort column missing from input");
    }
    keys.emplace_back(it->second, item.ascending);
  }
  std::stable_sort(input.begin(), input.end(),
                   [&](const Row& a, const Row& b) {
                     for (const auto& [o, asc] : keys) {
                       int c = a[static_cast<size_t>(o)].Compare(
                           b[static_cast<size_t>(o)]);
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return input;
}

Result<RowVector> ExecuteNode(const PlanNode& plan, const TableProvider& tables,
                              ExecProfile* profile, int depth);

/// The operator dispatch, shared by the plain and the profiled path.
Result<RowVector> DispatchNode(const PlanNode& plan,
                               const TableProvider& tables,
                               ExecProfile* profile, int depth) {
  switch (plan.kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kTempScan:
      return ExecuteScan(plan, tables);
    case PhysOpKind::kEmpty:
      return RowVector{};
    case PhysOpKind::kFilter: {
      PDW_ASSIGN_OR_RETURN(RowVector input,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      return ExecuteFilter(plan, std::move(input));
    }
    case PhysOpKind::kProject: {
      PDW_ASSIGN_OR_RETURN(RowVector input,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      return ExecuteProject(plan, std::move(input),
                            plan.children[0]->output);
    }
    case PhysOpKind::kHashJoin:
    case PhysOpKind::kNestedLoopJoin: {
      PDW_ASSIGN_OR_RETURN(RowVector left,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      PDW_ASSIGN_OR_RETURN(RowVector right,
                           ExecuteNode(*plan.children[1], tables, profile, depth + 1));
      return ExecuteJoin(plan, std::move(left), std::move(right),
                         plan.children[0]->output, plan.children[1]->output);
    }
    case PhysOpKind::kHashAggregate: {
      PDW_ASSIGN_OR_RETURN(RowVector input,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      return ExecuteAggregate(plan, std::move(input),
                              plan.children[0]->output);
    }
    case PhysOpKind::kSort: {
      PDW_ASSIGN_OR_RETURN(RowVector input,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      return ExecuteSort(plan, std::move(input));
    }
    case PhysOpKind::kLimit: {
      PDW_ASSIGN_OR_RETURN(RowVector input,
                           ExecuteNode(*plan.children[0], tables, profile, depth + 1));
      if (plan.limit >= 0 &&
          input.size() > static_cast<size_t>(plan.limit)) {
        input.resize(static_cast<size_t>(plan.limit));
      }
      return input;
    }
    case PhysOpKind::kUnionAll: {
      RowVector out;
      for (size_t i = 0; i < plan.children.size(); ++i) {
        PDW_ASSIGN_OR_RETURN(RowVector rows,
                             ExecuteNode(*plan.children[i], tables, profile, depth + 1));
        // Re-order each child's row positionally via union_inputs.
        ColumnOrdinalMap ords = OrdinalsOf(plan.children[i]->output);
        std::vector<int> positions;
        for (ColumnId id : plan.union_inputs[i]) {
          auto it = ords.find(id);
          if (it == ords.end()) {
            return Status::Internal("union input column missing from child");
          }
          positions.push_back(it->second);
        }
        for (Row& r : rows) {
          Row mapped;
          mapped.reserve(positions.size());
          for (int p : positions) mapped.push_back(r[static_cast<size_t>(p)]);
          out.push_back(std::move(mapped));
        }
      }
      return out;
    }
    case PhysOpKind::kMove:
      return Status::Internal(
          "executor reached a Move node; moves are executed by the DMS "
          "service, not the per-node engine");
  }
  return Status::Internal("unreachable plan kind in executor");
}

Result<RowVector> ExecuteNode(const PlanNode& plan, const TableProvider& tables,
                              ExecProfile* profile, int depth) {
  if (profile == nullptr) return DispatchNode(plan, tables, nullptr, depth);

  // Reserve the record before recursing so operators stay in pre-order.
  size_t slot = profile->operators.size();
  profile->operators.emplace_back();
  double t0 = NowSeconds();
  Result<RowVector> rows = DispatchNode(plan, tables, profile, depth);
  obs::OperatorProfile& op = profile->operators[slot];
  op.depth = depth;
  op.name = PhysOpKindToString(plan.kind);
  if (plan.kind == PhysOpKind::kTableScan || plan.kind == PhysOpKind::kTempScan) {
    op.name += "(" + plan.table_name + ")";
  } else if (plan.kind == PhysOpKind::kHashAggregate &&
             plan.agg_phase != AggPhase::kFull) {
    op.name += plan.agg_phase == AggPhase::kLocal ? "(local)" : "(global)";
  }
  op.estimated_rows = plan.cardinality;
  op.seconds = NowSeconds() - t0;
  op.nodes = 1;
  if (rows.ok()) op.actual_rows = static_cast<double>(rows->size());
  return rows;
}

}  // namespace

Result<RowVector> ExecuteRowPlan(const PlanNode& plan,
                                 const TableProvider& tables,
                                 ExecProfile* profile) {
  return ExecuteNode(plan, tables, profile, 0);
}

}  // namespace pdw
