#include "optimizer/serial_optimizer.h"

#include <chrono>
#include <cmath>

#include "obs/trace.h"
#include "sql/parser.h"

namespace pdw {

namespace {

// Serial cost-model weights (abstract units; only relative magnitudes
// matter for plan choice). Tuned so smaller-input-first join orders win —
// the behaviour the paper ascribes to the serial optimizer in §2.5.
constexpr double kScanWeight = 1.0;
constexpr double kFilterWeight = 0.2;
constexpr double kProjectWeight = 0.1;
constexpr double kHashBuildWeight = 1.5;
constexpr double kHashProbeWeight = 1.0;
constexpr double kNestedLoopWeight = 0.2;
constexpr double kAggWeight = 1.5;
constexpr double kSortWeight = 0.3;
constexpr double kOutputWeight = 0.1;

/// Local (per-operator) serial cost of one group expression given child
/// cardinalities.
double LocalSerialCost(const Memo& memo, const Group& g, const GroupExpr& e) {
  auto child_card = [&](int i) {
    return memo.group(e.children[static_cast<size_t>(i)]).cardinality;
  };
  switch (e.op->kind()) {
    case LogicalOpKind::kGet:
      return kScanWeight * g.cardinality;
    case LogicalOpKind::kEmpty:
      return 0;
    case LogicalOpKind::kFilter:
      return kFilterWeight * child_card(0);
    case LogicalOpKind::kProject:
      return kProjectWeight * child_card(0);
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*e.op);
      const Group& lg = memo.group(e.children[0]);
      const Group& rg = memo.group(e.children[1]);
      std::vector<std::pair<ColumnId, ColumnId>> keys =
          j.EquiKeys(lg.output, rg.output);
      if (!keys.empty() || j.join_type() == LogicalJoinType::kSemi ||
          j.join_type() == LogicalJoinType::kAnti) {
        return kHashBuildWeight * rg.cardinality +
               kHashProbeWeight * lg.cardinality +
               kOutputWeight * g.cardinality;
      }
      return kNestedLoopWeight * lg.cardinality * rg.cardinality +
             kOutputWeight * g.cardinality;
    }
    case LogicalOpKind::kAggregate:
      return kAggWeight * child_card(0) + kOutputWeight * g.cardinality;
    case LogicalOpKind::kSort: {
      double n = std::max(2.0, child_card(0));
      return kSortWeight * n * std::log2(n);
    }
    case LogicalOpKind::kLimit:
      return 0;
    case LogicalOpKind::kUnionAll:
      return kProjectWeight * g.cardinality;
  }
  return 0;
}

double ComputeWinner(Memo* memo, GroupId gid) {
  Group& g = memo->mutable_group(gid);
  if (g.winner_cost >= 0) return g.winner_cost;
  // Guard against accidental cycles: mark as in-progress with a huge cost.
  g.winner_cost = 1e300;
  double best = 1e300;
  int best_expr = -1;
  for (size_t i = 0; i < g.exprs.size(); ++i) {
    const GroupExpr& e = g.exprs[i];
    double total = LocalSerialCost(*memo, g, e);
    bool valid = true;
    for (GroupId c : e.children) {
      if (c == gid) {
        valid = false;
        break;
      }
      total += ComputeWinner(memo, c);
      if (total >= 1e300) {
        valid = false;
        break;
      }
    }
    if (valid && total < best) {
      best = total;
      best_expr = static_cast<int>(i);
    }
  }
  Group& g2 = memo->mutable_group(gid);
  g2.winner_cost = best;
  g2.winner_expr = best_expr;
  return best;
}

}  // namespace

PlanNodePtr PlanNodeFromPayload(const LogicalOp& payload,
                                std::vector<PlanNodePtr> children,
                                double cardinality, double row_width) {
  auto node = std::make_unique<PlanNode>();
  node->cardinality = cardinality;
  node->row_width = row_width;

  std::vector<std::vector<ColumnBinding>> child_outputs;
  for (const auto& c : children) child_outputs.push_back(c->output);
  node->output = payload.ComputeOutput(child_outputs);

  switch (payload.kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(payload);
      node->kind = PhysOpKind::kTableScan;
      node->table_name = get.table_name();
      node->table = get.table();
      break;
    }
    case LogicalOpKind::kEmpty:
      node->kind = PhysOpKind::kEmpty;
      break;
    case LogicalOpKind::kFilter: {
      node->kind = PhysOpKind::kFilter;
      node->conjuncts = static_cast<const LogicalFilter&>(payload).conjuncts();
      break;
    }
    case LogicalOpKind::kProject: {
      node->kind = PhysOpKind::kProject;
      node->items = static_cast<const LogicalProject&>(payload).items();
      break;
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(payload);
      node->join_type = j.join_type();
      node->conjuncts = j.conditions();
      node->equi_keys = j.EquiKeys(child_outputs[0], child_outputs[1]);
      node->kind = node->equi_keys.empty() ? PhysOpKind::kNestedLoopJoin
                                           : PhysOpKind::kHashJoin;
      break;
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(payload);
      node->kind = PhysOpKind::kHashAggregate;
      node->group_by = a.group_by();
      node->aggregates = a.aggregates();
      node->agg_phase = AggPhase::kFull;
      break;
    }
    case LogicalOpKind::kSort: {
      node->kind = PhysOpKind::kSort;
      node->sort_items = static_cast<const LogicalSort&>(payload).items();
      break;
    }
    case LogicalOpKind::kLimit: {
      node->kind = PhysOpKind::kLimit;
      node->limit = static_cast<const LogicalLimit&>(payload).limit();
      break;
    }
    case LogicalOpKind::kUnionAll: {
      node->kind = PhysOpKind::kUnionAll;
      node->union_inputs =
          static_cast<const LogicalUnionAll&>(payload).child_columns();
      break;
    }
  }
  node->children = std::move(children);
  return node;
}

namespace {

PlanNodePtr BuildSerialPlan(const Memo& memo, GroupId gid) {
  const Group& g = memo.group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(g.winner_expr)];
  std::vector<PlanNodePtr> children;
  for (GroupId c : e.children) children.push_back(BuildSerialPlan(memo, c));
  return PlanNodeFromPayload(*e.op, std::move(children), g.cardinality,
                             g.row_width);
}

}  // namespace

double SerialWinnerCost(Memo* memo, GroupId gid) {
  return ComputeWinner(memo, gid);
}

Result<PlanNodePtr> ExtractBestSerialPlan(Memo* memo) {
  if (memo->root() == kInvalidGroupId) {
    return Status::Internal("memo has no root group");
  }
  double cost = ComputeWinner(memo, memo->root());
  if (cost >= 1e300 || memo->group(memo->root()).winner_expr < 0) {
    return Status::Internal("no serial plan found in memo");
  }
  return BuildSerialPlan(*memo, memo->root());
}

Result<CompilationResult> CompileSelect(const Catalog& catalog,
                                        const sql::SelectStatement& stmt,
                                        const MemoOptions& memo_options) {
  auto now = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  CompilationResult out;
  double t0 = now();
  BoundQuery bound;
  {
    obs::TraceSpan span("compile.bind");
    Binder binder(catalog);
    PDW_ASSIGN_OR_RETURN(bound, binder.BindSelect(stmt));
  }
  out.phase_seconds.emplace_back("bind", now() - t0);

  out.output_names = bound.output_names;
  out.visible_columns = bound.visible_columns;
  t0 = now();
  {
    obs::TraceSpan span("compile.normalize");
    PDW_ASSIGN_OR_RETURN(out.normalized, Normalize(std::move(bound.root)));
  }
  out.phase_seconds.emplace_back("normalize", now() - t0);

  t0 = now();
  obs::TraceSpan span("compile.memo");
  out.stats = std::make_shared<StatsContext>();
  out.stats->RegisterTree(*out.normalized);
  out.estimator = std::make_shared<CardinalityEstimator>(out.stats.get());
  out.memo = std::make_shared<Memo>(out.estimator.get(), memo_options);
  PDW_RETURN_NOT_OK(out.memo->InsertTree(out.normalized).status());
  span.AddAttr("groups", static_cast<double>(out.memo->num_groups()));
  span.End();
  out.phase_seconds.emplace_back("memo", now() - t0);
  return out;
}

Result<CompilationResult> CompileQuery(const Catalog& catalog,
                                       const std::string& sql,
                                       const MemoOptions& memo_options) {
  PDW_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  return CompileSelect(catalog, *stmt, memo_options);
}

}  // namespace pdw
