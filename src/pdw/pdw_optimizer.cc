#include "pdw/pdw_optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "optimizer/serial_optimizer.h"

namespace pdw {

namespace {

/// Maps a partial-aggregate item to the matching global aggregate over the
/// partial column (SUM->SUM, COUNT->SUM of partial counts, MIN/MAX
/// idempotent). The binder splits AVG into SUM/COUNT before optimization;
/// an AVG reaching a split plan would silently re-aggregate partial
/// averages as a SUM, so it is a hard compile error instead.
Result<AggregateItem> GlobalPhaseItem(const AggregateItem& item) {
  AggregateItem global;
  global.output = item.output;
  global.distinct = false;
  global.arg = MakeColumn(item.output);
  switch (item.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kSum:
      global.func = AggFunc::kSum;
      break;
    case AggFunc::kMin:
      global.func = AggFunc::kMin;
      break;
    case AggFunc::kMax:
      global.func = AggFunc::kMax;
      break;
    case AggFunc::kAvg:
      return Status::Internal(
          "AVG survived binding into a split (local/global) aggregation "
          "plan; partial averages cannot be re-aggregated");
  }
  return global;
}

bool HasDistinctAggregate(const LogicalAggregate& agg) {
  for (const auto& item : agg.aggregates()) {
    if (item.distinct) return true;
  }
  return false;
}

/// Walks the built plan for the pushed-down shape: a join with a local
/// partial aggregate feeding one input (possibly through a Move/Sort).
bool PlanUsesPreagg(const PlanNode& node) {
  if (node.kind == PhysOpKind::kHashJoin ||
      node.kind == PhysOpKind::kNestedLoopJoin) {
    for (const auto& c : node.children) {
      const PlanNode* n = c.get();
      while (n->kind == PhysOpKind::kMove || n->kind == PhysOpKind::kSort) {
        n = n->children[0].get();
      }
      if (n->kind == PhysOpKind::kHashAggregate &&
          n->agg_phase == AggPhase::kLocal) {
        return true;
      }
    }
  }
  for (const auto& c : node.children) {
    if (PlanUsesPreagg(*c)) return true;
  }
  return false;
}

}  // namespace

PdwOptimizer::PdwOptimizer(Memo* memo, const Topology& topology,
                           PdwOptimizerOptions options)
    : memo_(memo),
      topology_(topology),
      opts_(options),
      cost_model_(options.cost_params, topology.num_compute_nodes),
      props_(DeriveInterestingProperties(*memo)) {}

ColumnId PdwOptimizer::MemberInOutput(GroupId gid, ColumnId rep) const {
  for (const auto& b : memo_->group(gid).output) {
    if (props_.equivalence.Find(b.id) == rep) return b.id;
  }
  return kInvalidColumnId;
}

bool PdwOptimizer::Consider(GroupId gid, PdwOption option) {
  ++considered_;
  bool is_enforcer = option.is_enforcer;
  bool is_preagg = option.preagg != nullptr;
  if (is_preagg) ++preagg_considered_;
  option.prop = option.prop.Canonical(props_.equivalence);
  std::vector<PdwOption>& opts = options_[gid];
  if (opts_.prune) {
    for (size_t i = 0; i < opts.size(); ++i) {
      if (opts[i].prop == option.prop) {
        if (CheaperOption(option, opts[i])) {
          opts[i] = std::move(option);
          if (is_enforcer) ++enforcers_kept_;
          if (is_preagg) ++preagg_kept_;
          return true;
        }
        return false;
      }
    }
    opts.push_back(std::move(option));
    if (is_enforcer) ++enforcers_kept_;
    if (is_preagg) ++preagg_kept_;
    return true;
  }
  // No pruning (FIG4 ablation): keep every structurally distinct option up
  // to the safety cap.
  if (opts.size() >= opts_.max_options_per_group) return false;
  opts.push_back(std::move(option));
  if (is_enforcer) ++enforcers_kept_;
  if (is_preagg) ++preagg_kept_;
  return true;
}

double PdwOptimizer::LocalWork(const Group& g, const GroupExpr& e,
                               bool distributed) const {
  double bytes = g.cardinality * std::max(1.0, g.row_width);
  for (GroupId c : e.children) {
    const Group& cg = memo_->group(c);
    bytes += cg.cardinality * std::max(1.0, cg.row_width);
  }
  return distributed ? bytes / cost_model_.num_nodes() : bytes;
}

double PdwOptimizer::RelationalCost(double work) const {
  return opts_.relational_costs ? opts_.relational_lambda * work : 0;
}

void PdwOptimizer::OptimizeGroup(GroupId gid) {
  if (done_.count(gid) > 0) return;
  if (!in_progress_.insert(gid).second) return;  // cycle guard

  const Group& g = memo_->group(gid);
  for (const auto& e : g.exprs) {
    for (GroupId c : e.children) OptimizeGroup(c);
  }
  for (size_t i = 0; i < g.exprs.size(); ++i) {
    EnumerateExpr(gid, static_cast<int>(i));
  }
  EnforcerStep(gid);
  in_progress_.erase(gid);
  done_.insert(gid);
}

void PdwOptimizer::EnumerateExpr(GroupId gid, int expr_index) {
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];

  switch (e.op->kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(*e.op);
      PdwOption o;
      o.expr_index = expr_index;
      const TableDef* t = get.table();
      if (t == nullptr || t->distribution.is_replicated()) {
        o.prop = DistributionProperty::Replicated();
      } else {
        std::vector<ColumnId> cols;
        for (const std::string& dc : t->distribution.columns) {
          for (const auto& b : get.bindings()) {
            if (EqualsIgnoreCase(b.name, dc)) cols.push_back(b.id);
          }
        }
        o.prop = DistributionProperty::Distributed(std::move(cols));
      }
      o.local = LocalWork(g, e, !o.prop.is_replicated());
      o.cost = RelationalCost(o.local);
      Consider(gid, std::move(o));
      return;
    }
    case LogicalOpKind::kEmpty: {
      for (DistributionProperty prop :
           {DistributionProperty::Replicated(),
            DistributionProperty::AnyDistributed(),
            DistributionProperty::Control()}) {
        PdwOption o;
        o.expr_index = expr_index;
        o.prop = prop;
        Consider(gid, std::move(o));
      }
      return;
    }
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kProject: {
      GroupId child = e.children[0];
      const auto& child_opts = options_.at(child);
      const double serial_work = LocalWork(g, e, false);
      const double node_work = LocalWork(g, e, true);
      for (size_t ci = 0; ci < child_opts.size(); ++ci) {
        PdwOption o;
        o.expr_index = expr_index;
        o.child_options = {static_cast<int>(ci)};
        o.prop = child_opts[ci].prop;
        if (e.op->kind() == LogicalOpKind::kProject &&
            o.prop.kind == DistributionKind::kDistributed) {
          // Hash columns must survive the projection (by class).
          for (ColumnId rep : o.prop.columns) {
            if (MemberInOutput(gid, rep) == kInvalidColumnId) {
              o.prop = DistributionProperty::AnyDistributed();
              break;
            }
          }
        }
        double work = !o.prop.is_replicated() && !o.prop.is_control()
                          ? node_work
                          : serial_work;
        o.cost = child_opts[ci].cost + RelationalCost(work);
        o.local = child_opts[ci].local + work;
        Consider(gid, std::move(o));
      }
      return;
    }
    case LogicalOpKind::kJoin:
      EnumerateJoin(gid, expr_index);
      return;
    case LogicalOpKind::kAggregate:
      EnumerateAggregate(gid, expr_index);
      return;
    case LogicalOpKind::kLimit:
      EnumerateLimit(gid, expr_index);
      return;
    case LogicalOpKind::kUnionAll:
      EnumerateUnionAll(gid, expr_index);
      return;
  }
}

void PdwOptimizer::EnumerateJoin(GroupId gid, int expr_index) {
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];
  const auto& j = static_cast<const LogicalJoin&>(*e.op);
  GroupId lg = e.children[0];
  GroupId rg = e.children[1];

  // Equivalence-class representatives of this join's own equi predicates —
  // only these make two distributed sides genuinely collocated.
  std::set<ColumnId> pair_reps;
  for (const auto& [a, b] :
       j.EquiKeys(memo_->group(lg).output, memo_->group(rg).output)) {
    pair_reps.insert(props_.equivalence.Find(a));
  }

  const auto& lopts = options_.at(lg);
  const auto& ropts = options_.at(rg);
  const double serial_work = LocalWork(g, e, false);
  const double node_work = LocalWork(g, e, true);
  for (size_t li = 0; li < lopts.size(); ++li) {
    for (size_t ri = 0; ri < ropts.size(); ++ri) {
      const DistributionProperty& L = lopts[li].prop;
      const DistributionProperty& R = ropts[ri].prop;
      DistributionProperty out;
      bool valid = false;

      bool l_dist = L.kind == DistributionKind::kDistributed;
      bool r_dist = R.kind == DistributionKind::kDistributed;
      if (L.is_control() && R.is_control()) {
        out = DistributionProperty::Control();
        valid = true;
      } else if (L.is_replicated() && R.is_replicated()) {
        out = DistributionProperty::Replicated();
        valid = true;
      } else if (l_dist && R.is_replicated()) {
        // Inner-side lookup table present everywhere: valid for every join
        // type that preserves the left stream's partitioning.
        out = L;
        valid = true;
      } else if (L.is_replicated() && r_dist) {
        // Only inner/cross joins may stream a replicated preserving side
        // against a distributed inner (each row matches on exactly the
        // nodes holding its partners; semi/anti/outer would duplicate or
        // mis-account rows).
        if (j.join_type() == LogicalJoinType::kInner ||
            j.join_type() == LogicalJoinType::kCross) {
          out = R;
          valid = true;
        }
      } else if (l_dist && r_dist) {
        // Collocated join: both sides hash-distributed on columns this
        // join equates.
        if (!L.columns.empty() && L.columns == R.columns) {
          bool all_equated = true;
          for (ColumnId rep : L.columns) {
            if (pair_reps.count(rep) == 0) all_equated = false;
          }
          if (all_equated) {
            out = L;
            valid = true;
          }
        }
      }
      if (!valid) continue;

      PdwOption o;
      o.expr_index = expr_index;
      o.child_options = {static_cast<int>(li), static_cast<int>(ri)};
      o.prop = out;
      double work =
          !out.is_replicated() && !out.is_control() ? node_work : serial_work;
      o.cost = lopts[li].cost + ropts[ri].cost + RelationalCost(work);
      o.local = lopts[li].local + ropts[ri].local + work;
      Consider(gid, std::move(o));
    }
  }
}

void PdwOptimizer::EnumerateAggregate(GroupId gid, int expr_index) {
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];
  const auto& agg = static_cast<const LogicalAggregate&>(*e.op);
  GroupId child = e.children[0];
  const Group& cg = memo_->group(child);
  double n = cost_model_.num_nodes();

  std::set<ColumnId> group_reps;
  for (ColumnId c : agg.group_by()) {
    group_reps.insert(props_.equivalence.Find(c));
  }
  bool splittable = !HasDistinctAggregate(agg);

  // Fig. 4 step 02: partial-aggregate cardinality fixed for the topology —
  // each node produces at most the global group count.
  double local_rows = std::min(cg.cardinality, n * std::max(1.0, g.cardinality));

  const auto& child_opts = options_.at(child);
  const double serial_work = LocalWork(g, e, false);
  const double node_work = LocalWork(g, e, true);
  for (size_t ci = 0; ci < child_opts.size(); ++ci) {
    const DistributionProperty& C = child_opts[ci].prop;
    double base = child_opts[ci].cost;
    double base_local = child_opts[ci].local;

    if (C.is_replicated() || C.is_control()) {
      PdwOption o;
      o.expr_index = expr_index;
      o.child_options = {static_cast<int>(ci)};
      o.prop = C;
      o.cost = base + RelationalCost(serial_work);
      o.local = base_local + serial_work;
      Consider(gid, std::move(o));
      continue;
    }

    // Single-phase local aggregation: the input distribution is a subset
    // of the group-by columns, so every group lives on one node.
    if (C.is_distributed_on_known_columns()) {
      bool subset = true;
      for (ColumnId rep : C.columns) {
        if (group_reps.count(rep) == 0) subset = false;
      }
      if (subset) {
        PdwOption o;
        o.expr_index = expr_index;
        o.child_options = {static_cast<int>(ci)};
        o.prop = C;
        o.cost = base + RelationalCost(node_work);
        o.local = base_local + node_work;
        Consider(gid, std::move(o));
      }
    }

    if (!splittable) continue;

    // Two-phase local/global with a shuffle on each group-by column.
    for (ColumnId gcol : agg.group_by()) {
      ColumnId rep = props_.equivalence.Find(gcol);
      PdwOption o;
      o.expr_index = expr_index;
      o.child_options = {static_cast<int>(ci)};
      o.strategy = DistributedStrategy::kLocalGlobalShuffle;
      o.shuffle_column = gcol;
      o.local_rows = local_rows;
      o.move_cost =
          cost_model_.Cost(DmsOpKind::kShuffle, local_rows, g.row_width);
      o.prop = DistributionProperty::Distributed({rep});
      o.cost = base + o.move_cost + RelationalCost(node_work);
      o.local = base_local + node_work;
      Consider(gid, std::move(o));
    }

    // Two-phase local/gather-to-control/global (the only distributed
    // option for scalar aggregates).
    {
      double moved = agg.group_by().empty() ? n : local_rows;
      PdwOption o;
      o.expr_index = expr_index;
      o.child_options = {static_cast<int>(ci)};
      o.strategy = DistributedStrategy::kLocalGlobalGather;
      o.local_rows = moved;
      o.move_cost =
          cost_model_.Cost(DmsOpKind::kPartitionMove, moved, g.row_width);
      o.prop = DistributionProperty::Control();
      o.cost = base + o.move_cost + RelationalCost(serial_work);
      o.local = base_local + serial_work;
      Consider(gid, std::move(o));
    }
  }

  EnumeratePreagg(gid, expr_index);
}

std::vector<int> PdwOptimizer::FrontierOptions(GroupId gid) const {
  const std::vector<PdwOption>& opts = options_.at(gid);
  std::vector<int> out;
  for (size_t i = 0; i < opts.size(); ++i) {
    bool seen = false;
    for (int& kept : out) {
      if (opts[static_cast<size_t>(kept)].prop == opts[i].prop) {
        seen = true;
        if (CheaperOption(opts[i], opts[static_cast<size_t>(kept)])) {
          kept = static_cast<int>(i);
        }
        break;
      }
    }
    if (!seen) out.push_back(static_cast<int>(i));
  }
  return out;
}

void PdwOptimizer::EnumeratePreagg(GroupId gid, int expr_index) {
  if (!opts_.enable_preagg) return;
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];
  const auto& agg = static_cast<const LogicalAggregate&>(*e.op);

  // Duplicate-sensitivity gates (DESIGN.md §5i): DISTINCT aggregates are
  // not decomposable, and scalar aggregates (empty GROUP BY) keep the
  // existing at-the-aggregate two-phase path only.
  if (HasDistinctAggregate(agg)) return;
  if (agg.group_by().empty()) return;

  GroupId child = e.children[0];
  const Group& cg = memo_->group(child);
  double n = cost_model_.num_nodes();

  std::set<ColumnId> group_reps;
  for (ColumnId c : agg.group_by()) {
    group_reps.insert(props_.equivalence.Find(c));
  }
  const double serial_work = LocalWork(g, e, false);
  const double node_work = LocalWork(g, e, true);

  for (size_t je = 0; je < cg.exprs.size(); ++je) {
    const GroupExpr& jx = cg.exprs[je];
    if (jx.op->kind() != LogicalOpKind::kJoin) continue;
    const auto& j = static_cast<const LogicalJoin&>(*jx.op);
    // Only inner joins whose every condition is a clean equi key: residual
    // or non-equi predicates filter *after* the join, so pre-aggregated
    // groups would fold rows such predicates later reject.
    if (j.join_type() != LogicalJoinType::kInner) continue;
    GroupId lg = jx.children[0];
    GroupId rg = jx.children[1];
    auto keys = j.EquiKeys(memo_->group(lg).output, memo_->group(rg).output);
    if (keys.empty() || keys.size() != j.conditions().size()) continue;

    std::set<ColumnId> pair_reps;
    for (const auto& [a, b] : keys) {
      pair_reps.insert(props_.equivalence.Find(a));
    }

    for (int side = 0; side < 2; ++side) {
      GroupId sg = side == 0 ? lg : rg;
      GroupId og = side == 0 ? rg : lg;
      const Group& sgr = memo_->group(sg);
      const Group& ogr = memo_->group(og);

      // Every aggregate argument must come from the pushed side: partial
      // SUM/COUNT/MIN/MAX folds rows *before* the join, so arguments off
      // the other side do not exist yet. COUNT(*) is side-agnostic (the
      // partial count times the uniform join multiplicity is exact).
      bool args_on_side = true;
      for (const auto& item : agg.aggregates()) {
        if (item.arg == nullptr) continue;  // COUNT(*)
        std::set<ColumnId> cols;
        CollectColumns(item.arg, &cols);
        for (ColumnId c : cols) {
          if (FindBinding(sgr.output, c) < 0) args_on_side = false;
        }
      }
      if (!args_on_side) continue;

      // Partial grouping key K = {group-by ∩ side} ∪ {side's equi keys}.
      // All rows in one partial group then share their join-key values, so
      // they join with the same other-side rows (uniform multiplicity) —
      // the soundness condition for SUM/COUNT through an inner equi join.
      std::vector<ColumnId> partial_keys;
      auto add_key = [&partial_keys](ColumnId c) {
        for (ColumnId k : partial_keys) {
          if (k == c) return;
        }
        partial_keys.push_back(c);
      };
      for (ColumnId gc : agg.group_by()) {
        if (FindBinding(sgr.output, gc) >= 0) add_key(gc);
      }
      for (const auto& [a, b] : keys) add_key(side == 0 ? a : b);

      std::set<ColumnId> key_reps;
      for (ColumnId k : partial_keys) {
        key_reps.insert(props_.equivalence.Find(k));
      }

      // Reduction factor: distinct-group estimate over the side's NDVs.
      double d = memo_->estimator().GroupCardinality(partial_keys,
                                                     sgr.cardinality);
      double partial_rows =
          std::min(sgr.cardinality, n * std::max(1.0, d));
      std::vector<ColumnBinding> partial_out;
      for (ColumnId k : partial_keys) {
        int pos = FindBinding(sgr.output, k);
        partial_out.push_back(sgr.output[static_cast<size_t>(pos)]);
      }
      for (const auto& item : agg.aggregates()) {
        partial_out.push_back(item.output);
      }
      double partial_width = memo_->estimator().RowWidth(partial_out);
      double join_rows = std::max(
          1.0, cg.cardinality *
                   std::min(1.0, partial_rows / std::max(1.0, sgr.cardinality)));
      double join_width = partial_width + ogr.row_width;

      PreaggRecipe base_recipe;
      base_recipe.join_expr = static_cast<int>(je);
      base_recipe.side = side;
      base_recipe.partial_keys = partial_keys;
      base_recipe.partial_rows = partial_rows;
      base_recipe.partial_width = partial_width;
      base_recipe.join_rows = join_rows;
      base_recipe.join_width = join_width;

      for (int si : FrontierOptions(sg)) {
        const PdwOption& sopt = options_.at(sg)[static_cast<size_t>(si)];
        if (sopt.prop.is_control()) continue;
        // The reduction-factor CPU term: scanning and hashing the side's
        // rows into partial groups, charged per input byte per node.
        double side_bytes = sgr.cardinality * std::max(1.0, sgr.row_width);
        double cpu = opts_.cost_params.lambda_preagg *
                     (sopt.prop.is_replicated() ? side_bytes : side_bytes / n);

        // The partial output keeps the side's hash distribution only when
        // every hash-column class survives into K.
        DistributionProperty pdist = sopt.prop;
        if (pdist.kind == DistributionKind::kDistributed) {
          for (ColumnId rep : pdist.columns) {
            if (key_reps.count(props_.equivalence.Find(rep)) == 0) {
              pdist = DistributionProperty::AnyDistributed();
              break;
            }
          }
        }

        // Candidate moves of the (reduced) partial stream below the join.
        struct PartialMove {
          bool has = false;
          DmsOpKind kind = DmsOpKind::kShuffle;
          ColumnId col = kInvalidColumnId;
          DistributionProperty dist;
        };
        std::vector<PartialMove> pmoves;
        pmoves.push_back(PartialMove{false, DmsOpKind::kShuffle,
                                     kInvalidColumnId, pdist});
        if (pdist.kind == DistributionKind::kDistributed) {
          if (opts_.hint != sql::DistributionHint::kForceBroadcast) {
            for (ColumnId k : partial_keys) {
              pmoves.push_back(
                  PartialMove{true, DmsOpKind::kShuffle, k,
                              DistributionProperty::Distributed({k})});
            }
          }
          if (opts_.hint != sql::DistributionHint::kForceShuffle) {
            pmoves.push_back(PartialMove{true, DmsOpKind::kBroadcastMove,
                                         kInvalidColumnId,
                                         DistributionProperty::Replicated()});
          }
        }

        for (const PartialMove& pm : pmoves) {
          double pmove_cost =
              pm.has ? cost_model_.Cost(pm.kind, partial_rows, partial_width)
                     : 0;
          DistributionProperty P = pm.dist.Canonical(props_.equivalence);

          for (int oi : FrontierOptions(og)) {
            const PdwOption& oopt = options_.at(og)[static_cast<size_t>(oi)];
            // Join validity — the same rules as EnumerateJoin, with the
            // partial stream standing in for the pushed side.
            const DistributionProperty& L = side == 0 ? P : oopt.prop;
            const DistributionProperty& R = side == 0 ? oopt.prop : P;
            bool l_dist = L.kind == DistributionKind::kDistributed;
            bool r_dist = R.kind == DistributionKind::kDistributed;
            DistributionProperty jdist;
            bool valid = false;
            if (L.is_replicated() && R.is_replicated()) {
              jdist = DistributionProperty::Replicated();
              valid = true;
            } else if (l_dist && R.is_replicated()) {
              jdist = L;
              valid = true;
            } else if (L.is_replicated() && r_dist) {
              jdist = R;
              valid = true;  // inner join: replicated side streams in place
            } else if (l_dist && r_dist && !L.columns.empty() &&
                       L.columns == R.columns) {
              bool all_equated = true;
              for (ColumnId rep : L.columns) {
                if (pair_reps.count(rep) == 0) all_equated = false;
              }
              if (all_equated) {
                jdist = L;
                valid = true;
              }
            }
            if (!valid) continue;

            double work = jdist.is_replicated() ? serial_work : node_work;
            double base_cost = sopt.cost + oopt.cost + cpu + pmove_cost +
                               RelationalCost(work);
            double local = sopt.local + oopt.local + work;

            auto emit = [&](bool has_gmove, DmsOpKind gkind, ColumnId gcol,
                            double gmove_cost, DistributionProperty final_prop,
                            DistributionProperty global_dist) {
              auto recipe = std::make_shared<PreaggRecipe>(base_recipe);
              recipe->side_option = si;
              recipe->other_option = oi;
              recipe->partial_dist = pdist;
              recipe->has_partial_move = pm.has;
              recipe->partial_move_kind = pm.kind;
              recipe->partial_shuffle_col = pm.col;
              recipe->partial_move_cost = pmove_cost;
              recipe->partial_moved_dist = pm.dist;
              recipe->join_dist = jdist;
              recipe->has_global_move = has_gmove;
              recipe->global_move_kind = gkind;
              recipe->global_shuffle_col = gcol;
              recipe->global_move_cost = gmove_cost;
              recipe->global_dist = global_dist;

              PdwOption o;
              o.expr_index = expr_index;
              o.strategy = DistributedStrategy::kPreaggJoin;
              o.preagg = std::move(recipe);
              o.local_rows = partial_rows;
              o.move_cost = pmove_cost + gmove_cost;
              o.prop = final_prop;
              o.cost = base_cost + gmove_cost;
              o.local = local;
              Consider(gid, std::move(o));
            };

            if (jdist.is_replicated()) {
              // Every node holds all partials and all other rows: the
              // global aggregate runs in place, replicated.
              emit(false, DmsOpKind::kShuffle, kInvalidColumnId, 0, jdist,
                   jdist);
              continue;
            }
            // In place when the join output is hash-distributed on group-by
            // classes — each final group already lives on one node.
            if (jdist.is_distributed_on_known_columns()) {
              bool subset = true;
              for (ColumnId rep : jdist.columns) {
                if (group_reps.count(rep) == 0) subset = false;
              }
              if (subset) {
                emit(false, DmsOpKind::kShuffle, kInvalidColumnId, 0, jdist,
                     jdist);
              }
            }
            // Shuffle the (reduced) join output on a group-by column.
            if (opts_.hint != sql::DistributionHint::kForceBroadcast) {
              for (ColumnId gcol : agg.group_by()) {
                double gmove = cost_model_.Cost(DmsOpKind::kShuffle, join_rows,
                                                join_width);
                DistributionProperty gdist =
                    DistributionProperty::Distributed({gcol});
                emit(true, DmsOpKind::kShuffle, gcol, gmove, gdist, gdist);
              }
            }
            // Gather the (reduced) join output to the control node.
            {
              double gmove = cost_model_.Cost(DmsOpKind::kPartitionMove,
                                              join_rows, join_width);
              emit(true, DmsOpKind::kPartitionMove, kInvalidColumnId, gmove,
                   DistributionProperty::Control(),
                   DistributionProperty::Control());
            }
          }
        }
      }
    }
  }
}

void PdwOptimizer::EnumerateLimit(GroupId gid, int expr_index) {
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];
  const auto& limit = static_cast<const LogicalLimit&>(*e.op);
  GroupId child = e.children[0];
  const Group& cg = memo_->group(child);
  double n = cost_model_.num_nodes();

  const auto& child_opts = options_.at(child);
  for (size_t ci = 0; ci < child_opts.size(); ++ci) {
    const DistributionProperty& C = child_opts[ci].prop;
    if (C.is_replicated() || C.is_control()) {
      PdwOption o;
      o.expr_index = expr_index;
      o.child_options = {static_cast<int>(ci)};
      o.prop = C;
      o.cost = child_opts[ci].cost;
      o.local = child_opts[ci].local;
      Consider(gid, std::move(o));
      continue;
    }
    // Local top-N per node, gather at most N*n rows, re-limit globally.
    double moved =
        std::min(cg.cardinality, static_cast<double>(limit.limit()) * n);
    PdwOption o;
    o.expr_index = expr_index;
    o.child_options = {static_cast<int>(ci)};
    o.strategy = DistributedStrategy::kLocalLimitGather;
    o.local_rows = moved;
    o.move_cost =
        cost_model_.Cost(DmsOpKind::kPartitionMove, moved, g.row_width);
    o.prop = DistributionProperty::Control();
    o.cost = child_opts[ci].cost + o.move_cost;
    o.local = child_opts[ci].local;
    Consider(gid, std::move(o));
  }
}

void PdwOptimizer::EnumerateUnionAll(GroupId gid, int expr_index) {
  const Group& g = memo_->group(gid);
  const GroupExpr& e = g.exprs[static_cast<size_t>(expr_index)];
  const auto& u = static_cast<const LogicalUnionAll&>(*e.op);
  size_t n = e.children.size();

  // Odometer over the children's option tables (small: pruning bounds each
  // table by #interesting + 3). A combination is valid when all children
  // share the same distribution kind: mixing replicated and distributed
  // inputs would duplicate or drop rows.
  std::vector<const std::vector<PdwOption>*> tables;
  for (GroupId c : e.children) tables.push_back(&options_.at(c));
  std::vector<size_t> idx(n, 0);
  const double serial_work = LocalWork(g, e, false);
  const double node_work = LocalWork(g, e, true);
  size_t combos = 0;
  while (true) {
    if (++combos > 20000) break;  // safety valve for very wide unions
    bool all_repl = true, all_ctrl = true, all_dist = true;
    double cost = 0;
    double local = 0;
    for (size_t i = 0; i < n; ++i) {
      const PdwOption& o = (*tables[i])[idx[i]];
      cost += o.cost;
      local += o.local;
      all_repl &= o.prop.is_replicated();
      all_ctrl &= o.prop.is_control();
      all_dist &= o.prop.kind == DistributionKind::kDistributed;
    }
    if (all_repl || all_ctrl || all_dist) {
      PdwOption o;
      o.expr_index = expr_index;
      for (size_t i = 0; i < n; ++i) {
        o.child_options.push_back(static_cast<int>(idx[i]));
      }
      if (all_repl) {
        o.prop = DistributionProperty::Replicated();
      } else if (all_ctrl) {
        o.prop = DistributionProperty::Control();
      } else {
        // Collocated union (§3.1): if every child is hash-distributed on
        // the column feeding the same output position, the union output is
        // hash-distributed on that position.
        o.prop = DistributionProperty::AnyDistributed();
        for (size_t pos = 0; pos < u.outputs().size(); ++pos) {
          bool aligned = true;
          for (size_t i = 0; i < n; ++i) {
            const PdwOption& co = (*tables[i])[idx[i]];
            ColumnId feed = u.child_columns()[i][pos];
            if (co.prop.columns.size() != 1 ||
                co.prop.columns[0] != props_.equivalence.Find(feed)) {
              aligned = false;
              break;
            }
          }
          if (aligned) {
            o.prop = DistributionProperty::Distributed({u.outputs()[pos].id});
            break;
          }
        }
      }
      double work = !o.prop.is_replicated() && !o.prop.is_control()
                        ? node_work
                        : serial_work;
      o.cost = cost + RelationalCost(work);
      o.local = local + work;
      Consider(gid, std::move(o));
    }
    // Advance the odometer.
    size_t d = 0;
    while (d < n) {
      if (++idx[d] < tables[d]->size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == n) break;
  }
}

void PdwOptimizer::EnforcerStep(GroupId gid) {
  const Group& g = memo_->group(gid);

  // Enforcer targets: every interesting column class visible in the output,
  // plus Replicated (broadcasts) and Control (gathers) — Fig. 4 step 07.
  std::vector<DistributionProperty> targets;
  auto it = props_.interesting.find(gid);
  if (it != props_.interesting.end()) {
    for (ColumnId rep : it->second) {
      if (MemberInOutput(gid, rep) != kInvalidColumnId) {
        targets.push_back(DistributionProperty::Distributed({rep}));
      }
    }
  }
  targets.push_back(DistributionProperty::Replicated());
  targets.push_back(DistributionProperty::Control());

  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    // Indexes are stable: Consider only appends or improves in place.
    size_t count = options_[gid].size();
    for (size_t i = 0; i < count; ++i) {
      PdwOption src = options_[gid][i];  // copy: vector may grow
      for (const DistributionProperty& target : targets) {
        DistributionProperty canon_target =
            target.Canonical(props_.equivalence);
        if (src.prop == canon_target) continue;

        DmsOpKind kind;
        ColumnId shuffle_col = kInvalidColumnId;
        if (canon_target.kind == DistributionKind::kDistributed) {
          if (opts_.hint == sql::DistributionHint::kForceBroadcast &&
              !src.prop.is_replicated()) {
            continue;  // hint: no shuffles; broadcasts only
          }
          shuffle_col = MemberInOutput(gid, canon_target.columns[0]);
          if (shuffle_col == kInvalidColumnId) continue;
          if (src.prop.is_replicated()) {
            if (!opts_.enable_trim_move) continue;
            kind = DmsOpKind::kTrimMove;
          } else if (src.prop.is_control()) {
            continue;  // control -> distributed is not one of the 7 ops
          } else {
            kind = DmsOpKind::kShuffle;
          }
        } else if (canon_target.is_replicated()) {
          if (opts_.hint == sql::DistributionHint::kForceShuffle) {
            continue;  // hint: no broadcasts; shuffles only
          }
          if (src.prop.is_control()) {
            kind = DmsOpKind::kControlNodeMove;
          } else if (src.prop.kind == DistributionKind::kDistributed) {
            kind = DmsOpKind::kBroadcastMove;
          } else {
            continue;
          }
        } else {  // Control
          if (src.prop.is_replicated()) {
            kind = DmsOpKind::kRemoteCopyToSingle;
          } else if (src.prop.kind == DistributionKind::kDistributed) {
            kind = DmsOpKind::kPartitionMove;
          } else {
            continue;
          }
        }

        PdwOption o;
        o.prop = canon_target;
        o.is_enforcer = true;
        o.move_kind = kind;
        o.source_option = static_cast<int>(i);
        o.shuffle_column = shuffle_col;
        o.move_cost = cost_model_.Cost(kind, g.cardinality, g.row_width);
        o.cost = src.cost + o.move_cost;
        o.local = src.local;
        changed |= Consider(gid, std::move(o));
      }
    }
    if (!changed) break;
  }
}

Result<PlanNodePtr> PdwOptimizer::BuildPlan(GroupId gid,
                                            int option_index) const {
  const Group& g = memo_->group(gid);
  const PdwOption& o = options_.at(gid)[static_cast<size_t>(option_index)];

  if (o.is_enforcer) {
    PDW_ASSIGN_OR_RETURN(PlanNodePtr child, BuildPlan(gid, o.source_option));
    bool child_sorted = child->kind == PhysOpKind::kSort;
    std::vector<SortItem> sort_items = child->sort_items;

    auto move = std::make_unique<PlanNode>();
    move->kind = PhysOpKind::kMove;
    move->move_kind = o.move_kind;
    if (o.shuffle_column != kInvalidColumnId) {
      move->shuffle_columns = {o.shuffle_column};
    }
    move->output = child->output;
    move->cardinality = g.cardinality;
    move->row_width = g.row_width;
    move->move_cost = o.move_cost;
    move->distribution = o.prop;
    if (o.shuffle_column != kInvalidColumnId) {
      move->distribution = DistributionProperty::Distributed({o.shuffle_column});
    }
    move->children.push_back(std::move(child));

    if (!child_sorted) return move;
    // A move destroys per-node order; restore it above the move.
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PhysOpKind::kSort;
    sort->sort_items = std::move(sort_items);
    sort->output = move->output;
    sort->cardinality = move->cardinality;
    sort->row_width = move->row_width;
    sort->distribution = move->distribution;
    sort->children.push_back(std::move(move));
    return sort;
  }

  const GroupExpr& e = g.exprs[static_cast<size_t>(o.expr_index)];

  if (o.strategy == DistributedStrategy::kPreaggJoin) {
    // Pushed-down shape: GlobalAgg -> [Move] -> Join -> [Move] ->
    // PartialAgg(local) -> side, with the other join input built normally.
    const auto& agg = static_cast<const LogicalAggregate&>(*e.op);
    const Group& cg = memo_->group(e.children[0]);
    const PreaggRecipe& r = *o.preagg;
    const GroupExpr& jx = cg.exprs[static_cast<size_t>(r.join_expr)];
    GroupId sg = jx.children[static_cast<size_t>(r.side)];
    GroupId og = jx.children[static_cast<size_t>(1 - r.side)];
    const Group& sgr = memo_->group(sg);
    PDW_ASSIGN_OR_RETURN(PlanNodePtr side_plan, BuildPlan(sg, r.side_option));
    PDW_ASSIGN_OR_RETURN(PlanNodePtr other_plan,
                         BuildPlan(og, r.other_option));
    DistributionProperty side_dist = side_plan->distribution;

    auto partial = std::make_unique<PlanNode>();
    partial->kind = PhysOpKind::kHashAggregate;
    partial->agg_phase = AggPhase::kLocal;
    partial->group_by = r.partial_keys;
    partial->aggregates = agg.aggregates();
    for (ColumnId k : r.partial_keys) {
      int pos = FindBinding(sgr.output, k);
      if (pos < 0) return Status::Internal("partial key missing from side");
      partial->output.push_back(sgr.output[static_cast<size_t>(pos)]);
    }
    for (const auto& item : agg.aggregates()) {
      partial->output.push_back(item.output);
    }
    partial->cardinality = r.partial_rows;
    partial->row_width = r.partial_width;
    // Prefer the concrete child distribution for display when preserved.
    partial->distribution =
        r.partial_dist.kind == DistributionKind::kDistributed &&
                side_dist.kind == DistributionKind::kDistributed &&
                !side_dist.columns.empty()
            ? side_dist
            : r.partial_dist;
    partial->children.push_back(std::move(side_plan));

    PlanNodePtr partial_top = std::move(partial);
    if (r.has_partial_move) {
      auto move = std::make_unique<PlanNode>();
      move->kind = PhysOpKind::kMove;
      move->move_kind = r.partial_move_kind;
      if (r.partial_shuffle_col != kInvalidColumnId) {
        move->shuffle_columns = {r.partial_shuffle_col};
      }
      move->output = partial_top->output;
      move->cardinality = r.partial_rows;
      move->row_width = r.partial_width;
      move->move_cost = r.partial_move_cost;
      move->distribution = r.partial_moved_dist;
      move->children.push_back(std::move(partial_top));
      partial_top = std::move(move);
    }

    std::vector<PlanNodePtr> join_children(2);
    join_children[static_cast<size_t>(r.side)] = std::move(partial_top);
    join_children[static_cast<size_t>(1 - r.side)] = std::move(other_plan);
    PlanNodePtr join = PlanNodeFromPayload(*jx.op, std::move(join_children),
                                           r.join_rows, r.join_width);
    join->distribution = r.join_dist;

    PlanNodePtr join_top = std::move(join);
    if (r.has_global_move) {
      auto move = std::make_unique<PlanNode>();
      move->kind = PhysOpKind::kMove;
      move->move_kind = r.global_move_kind;
      if (r.global_shuffle_col != kInvalidColumnId) {
        move->shuffle_columns = {r.global_shuffle_col};
      }
      move->output = join_top->output;
      move->cardinality = r.join_rows;
      move->row_width = r.join_width;
      move->move_cost = r.global_move_cost;
      move->distribution = r.global_dist;
      move->children.push_back(std::move(join_top));
      join_top = std::move(move);
    }

    auto global = std::make_unique<PlanNode>();
    global->kind = PhysOpKind::kHashAggregate;
    global->agg_phase = AggPhase::kGlobal;
    global->group_by = agg.group_by();
    for (const auto& item : agg.aggregates()) {
      PDW_ASSIGN_OR_RETURN(AggregateItem gi, GlobalPhaseItem(item));
      global->aggregates.push_back(std::move(gi));
    }
    global->output = g.output;
    global->cardinality = g.cardinality;
    global->row_width = g.row_width;
    global->distribution = r.global_dist;
    global->children.push_back(std::move(join_top));
    return PlanNodePtr(std::move(global));
  }

  std::vector<PlanNodePtr> children;
  for (size_t i = 0; i < e.children.size(); ++i) {
    PDW_ASSIGN_OR_RETURN(PlanNodePtr c,
                         BuildPlan(e.children[i], o.child_options[i]));
    children.push_back(std::move(c));
  }

  if (o.strategy == DistributedStrategy::kPlain) {
    DistributionProperty child_dist =
        children.empty() ? o.prop : children[0]->distribution;
    PlanNodePtr node = PlanNodeFromPayload(*e.op, std::move(children),
                                           g.cardinality, g.row_width);
    node->distribution = o.prop;
    // Prefer the concrete (non-canonical) child distribution for display.
    if (o.prop.kind == DistributionKind::kDistributed &&
        child_dist.kind == DistributionKind::kDistributed &&
        !child_dist.columns.empty()) {
      node->distribution = child_dist;
    }
    return node;
  }

  if (o.strategy == DistributedStrategy::kLocalLimitGather) {
    const auto& limit = static_cast<const LogicalLimit&>(*e.op);
    PlanNodePtr child = std::move(children[0]);
    bool child_sorted = child->kind == PhysOpKind::kSort;
    std::vector<SortItem> sort_items = child->sort_items;
    DistributionProperty child_dist = child->distribution;

    auto local = std::make_unique<PlanNode>();
    local->kind = PhysOpKind::kLimit;
    local->limit = limit.limit();
    local->output = child->output;
    local->cardinality = o.local_rows;
    local->row_width = g.row_width;
    local->distribution = child_dist;
    local->children.push_back(std::move(child));

    auto move = std::make_unique<PlanNode>();
    move->kind = PhysOpKind::kMove;
    move->move_kind = DmsOpKind::kPartitionMove;
    move->output = local->output;
    move->cardinality = o.local_rows;
    move->row_width = g.row_width;
    move->move_cost = o.move_cost;
    move->distribution = DistributionProperty::Control();
    move->children.push_back(std::move(local));

    PlanNodePtr top = std::move(move);
    if (child_sorted) {
      auto sort = std::make_unique<PlanNode>();
      sort->kind = PhysOpKind::kSort;
      sort->sort_items = sort_items;
      sort->output = top->output;
      sort->cardinality = top->cardinality;
      sort->row_width = top->row_width;
      sort->distribution = top->distribution;
      sort->children.push_back(std::move(top));
      top = std::move(sort);
    }
    auto global = std::make_unique<PlanNode>();
    global->kind = PhysOpKind::kLimit;
    global->limit = limit.limit();
    global->output = top->output;
    global->cardinality = g.cardinality;
    global->row_width = g.row_width;
    global->distribution = DistributionProperty::Control();
    global->children.push_back(std::move(top));
    return global;
  }

  // Local/global aggregation strategies.
  const auto& agg = static_cast<const LogicalAggregate&>(*e.op);
  PlanNodePtr child = std::move(children[0]);
  DistributionProperty child_dist = child->distribution;

  std::vector<PlanNodePtr> local_children;
  local_children.push_back(std::move(child));
  PlanNodePtr local = PlanNodeFromPayload(*e.op, std::move(local_children),
                                          o.local_rows, g.row_width);
  local->agg_phase = AggPhase::kLocal;
  local->distribution = child_dist;

  auto move = std::make_unique<PlanNode>();
  move->kind = PhysOpKind::kMove;
  move->output = local->output;
  move->cardinality = o.local_rows;
  move->row_width = g.row_width;
  move->move_cost = o.move_cost;
  if (o.strategy == DistributedStrategy::kLocalGlobalShuffle) {
    move->move_kind = DmsOpKind::kShuffle;
    move->shuffle_columns = {o.shuffle_column};
    move->distribution = DistributionProperty::Distributed({o.shuffle_column});
  } else {
    move->move_kind = DmsOpKind::kPartitionMove;
    move->distribution = DistributionProperty::Control();
  }
  move->children.push_back(std::move(local));

  auto global = std::make_unique<PlanNode>();
  global->kind = PhysOpKind::kHashAggregate;
  global->agg_phase = AggPhase::kGlobal;
  global->group_by = agg.group_by();
  for (const auto& item : agg.aggregates()) {
    PDW_ASSIGN_OR_RETURN(AggregateItem gi, GlobalPhaseItem(item));
    global->aggregates.push_back(std::move(gi));
  }
  global->output = move->output;
  global->cardinality = g.cardinality;
  global->row_width = g.row_width;
  global->distribution = move->distribution;
  global->children.push_back(std::move(move));
  return global;
}

Result<PdwPlanResult> PdwOptimizer::Optimize() {
  if (memo_->root() == kInvalidGroupId) {
    return Status::Internal("memo has no root group");
  }
  OptimizeGroup(memo_->root());

  // The final Return operation streams per-node results back to the client
  // (paper §2.3: such queries involve no DMS), so the root may finish under
  // any distribution property; the engine's result assembly merges sorted
  // streams and deduplicates replicated ones.
  const auto& root_opts = options_[memo_->root()];
  if (root_opts.empty()) {
    return Status::Internal("no control-node plan found for root group");
  }
  size_t best = 0;
  for (size_t i = 1; i < root_opts.size(); ++i) {
    if (CheaperOption(root_opts[i], root_opts[best])) best = i;
  }

  PdwPlanResult result;
  PDW_ASSIGN_OR_RETURN(result.plan,
                       BuildPlan(memo_->root(), static_cast<int>(best)));
  result.cost = root_opts[best].cost;
  result.local = root_opts[best].local;
  result.options_considered = considered_;
  for (const auto& [gid, opts] : options_) result.options_kept += opts.size();
  result.options_pruned = considered_ - result.options_kept;
  result.enforcers_inserted = enforcers_kept_;
  result.groups_optimized = done_.size();
  result.preagg_considered = preagg_considered_;
  result.preagg_kept = preagg_kept_;
  result.preagg_chosen = PlanUsesPreagg(*result.plan);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Count("optimizer.runs");
  reg.Count("optimizer.groups", static_cast<double>(result.groups_optimized));
  reg.Count("optimizer.options_generated",
            static_cast<double>(result.options_considered));
  reg.Count("optimizer.options_pruned",
            static_cast<double>(result.options_pruned));
  reg.Count("optimizer.enforcers_inserted",
            static_cast<double>(result.enforcers_inserted));
  reg.Count("optimizer.preagg.considered",
            static_cast<double>(result.preagg_considered));
  reg.Count("optimizer.preagg.kept",
            static_cast<double>(result.preagg_kept));
  if (result.preagg_chosen) reg.Count("optimizer.preagg.chosen");
  return result;
}

}  // namespace pdw
