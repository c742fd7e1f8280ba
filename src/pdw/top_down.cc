#include "pdw/top_down.h"

#include <algorithm>

#include "common/string_util.h"
#include "pdw/pdw_optimizer.h"

namespace pdw {

namespace {

constexpr double kInfiniteCost = 1e300;

bool HasDistinctAggregate(const LogicalAggregate& agg) {
  for (const auto& item : agg.aggregates()) {
    if (item.distinct) return true;
  }
  return false;
}

}  // namespace

TopDownPdwOptimizer::TopDownPdwOptimizer(Memo* memo, const Topology& topology,
                                         Options options)
    : memo_(memo),
      opts_(options),
      cost_model_(options.cost_params, topology.num_compute_nodes),
      props_(DeriveInterestingProperties(*memo)) {}

std::vector<DistributionProperty> TopDownPdwOptimizer::CandidateProps(
    GroupId gid) {
  std::vector<DistributionProperty> out;
  auto add = [&](DistributionProperty p) {
    p = p.Canonical(props_.equivalence);
    for (const auto& existing : out) {
      if (existing == p) return;
    }
    out.push_back(std::move(p));
  };
  // Interesting columns visible in the output.
  auto it = props_.interesting.find(gid);
  if (it != props_.interesting.end()) {
    for (ColumnId rep : it->second) {
      for (const auto& b : memo_->group(gid).output) {
        if (props_.equivalence.Find(b.id) == rep) {
          add(DistributionProperty::Distributed({rep}));
          break;
        }
      }
    }
  }
  // Natural distributions of any base-table access in this group.
  for (const auto& e : memo_->group(gid).exprs) {
    if (e.op->kind() != LogicalOpKind::kGet) continue;
    const auto& get = static_cast<const LogicalGet&>(*e.op);
    const TableDef* t = get.table();
    if (t == nullptr || t->distribution.is_replicated()) continue;
    std::vector<ColumnId> cols;
    for (const std::string& dc : t->distribution.columns) {
      for (const auto& b : get.bindings()) {
        if (EqualsIgnoreCase(b.name, dc)) cols.push_back(b.id);
      }
    }
    if (!cols.empty()) add(DistributionProperty::Distributed(std::move(cols)));
  }
  add(DistributionProperty::AnyDistributed());
  add(DistributionProperty::Replicated());
  add(DistributionProperty::Control());
  return out;
}

double TopDownPdwOptimizer::BestAnyDistributed(GroupId gid) {
  return BestCost(gid, DistributionProperty::AnyDistributed());
}

double TopDownPdwOptimizer::MoveEdge(GroupId gid,
                                     const DistributionProperty& src,
                                     const DistributionProperty& target) const {
  const Group& g = memo_->group(gid);
  if (target.kind == DistributionKind::kDistributed &&
      !target.columns.empty()) {
    bool visible = false;
    for (const auto& b : g.output) {
      if (props_.equivalence.Find(b.id) == target.columns[0]) visible = true;
    }
    if (!visible) return kInfiniteCost;
    if (src.is_replicated()) {
      if (!opts_.enable_trim_move) return kInfiniteCost;
      return cost_model_.Cost(DmsOpKind::kTrimMove, g.cardinality,
                              g.row_width);
    }
    if (src.kind == DistributionKind::kDistributed) {
      return cost_model_.Cost(DmsOpKind::kShuffle, g.cardinality, g.row_width);
    }
    return kInfiniteCost;  // control -> distributed unsupported
  }
  if (target.is_replicated()) {
    if (src.is_control()) {
      return cost_model_.Cost(DmsOpKind::kControlNodeMove, g.cardinality,
                              g.row_width);
    }
    if (src.kind == DistributionKind::kDistributed) {
      return cost_model_.Cost(DmsOpKind::kBroadcastMove, g.cardinality,
                              g.row_width);
    }
    return kInfiniteCost;
  }
  if (target.is_control()) {
    if (src.is_replicated()) {
      return cost_model_.Cost(DmsOpKind::kRemoteCopyToSingle, g.cardinality,
                              g.row_width);
    }
    if (src.kind == DistributionKind::kDistributed) {
      return cost_model_.Cost(DmsOpKind::kPartitionMove, g.cardinality,
                              g.row_width);
    }
    return kInfiniteCost;
  }
  // target AnyDistributed: satisfied for free by any distributed source.
  if (src.kind == DistributionKind::kDistributed) return 0;
  return kInfiniteCost;
}

void TopDownPdwOptimizer::ComputeGroup(GroupId gid) {
  if (group_done_.count(gid) > 0) return;
  group_done_.insert(gid);  // children recurse via DirectCost, never to gid

  std::vector<DistributionProperty> candidates = CandidateProps(gid);
  std::map<DistributionProperty, double> val;
  for (const DistributionProperty& p : candidates) {
    val[p] = DirectCost(gid, p);
    ++stats_.states_computed;
  }
  // Relax intra-group move edges to fixpoint (<= |P| rounds).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const DistributionProperty& target : candidates) {
      for (const DistributionProperty& src : candidates) {
        if (src == target) continue;
        double s_cost = val[src];
        if (s_cost >= kInfiniteCost) continue;
        double edge = MoveEdge(gid, src, target);
        if (edge >= kInfiniteCost) continue;
        if (s_cost + edge < val[target] - 1e-18) {
          val[target] = s_cost + edge;
          changed = true;
        }
      }
    }
  }
  for (const auto& [p, c] : val) table_[{gid, p}] = c;
}

double TopDownPdwOptimizer::BestCost(GroupId gid,
                                     const DistributionProperty& raw_prop) {
  DistributionProperty prop = raw_prop.Canonical(props_.equivalence);
  ++stats_.states_requested;
  ComputeGroup(gid);
  auto it = table_.find({gid, prop});
  if (it != table_.end()) return it->second;

  // Demanded property outside the candidate set (e.g. a union alignment
  // column): direct realization plus one hop from the finished candidates.
  // Nothing uses such properties as an enforcer *source*, so one pass is
  // exact; memoize for reuse.
  double best = DirectCost(gid, prop);
  ++stats_.states_computed;
  for (const DistributionProperty& src : CandidateProps(gid)) {
    double s_cost = table_.at({gid, src});
    if (s_cost >= kInfiniteCost) continue;
    double edge = MoveEdge(gid, src, prop);
    if (edge >= kInfiniteCost) continue;
    best = std::min(best, s_cost + edge);
  }
  table_[{gid, prop}] = best;
  return best;
}

double TopDownPdwOptimizer::DirectCost(GroupId gid,
                                       const DistributionProperty& prop) {
  const Group& g = memo_->group(gid);
  double n = cost_model_.num_nodes();
  bool want_any = prop.kind == DistributionKind::kDistributed &&
                  prop.columns.empty();
  bool want_dist = prop.kind == DistributionKind::kDistributed &&
                   !prop.columns.empty();

  double best = kInfiniteCost;
  for (const GroupExpr& e : g.exprs) {
    switch (e.op->kind()) {
      case LogicalOpKind::kGet: {
        const auto& get = static_cast<const LogicalGet&>(*e.op);
        const TableDef* t = get.table();
        DistributionProperty natural = DistributionProperty::Replicated();
        if (t != nullptr && !t->distribution.is_replicated()) {
          std::vector<ColumnId> cols;
          for (const std::string& dc : t->distribution.columns) {
            for (const auto& b : get.bindings()) {
              if (EqualsIgnoreCase(b.name, dc)) cols.push_back(b.id);
            }
          }
          natural = DistributionProperty::Distributed(std::move(cols));
        }
        natural = natural.Canonical(props_.equivalence);
        bool matches = natural == prop ||
                       (want_any &&
                        natural.kind == DistributionKind::kDistributed);
        if (matches) best = std::min(best, 0.0);
        break;
      }
      case LogicalOpKind::kEmpty:
        best = std::min(best, 0.0);
        break;
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kSort:
      case LogicalOpKind::kProject:
        best = std::min(best, BestCost(e.children[0], prop));
        break;
      case LogicalOpKind::kJoin: {
        const auto& j = static_cast<const LogicalJoin&>(*e.op);
        GroupId lg = e.children[0];
        GroupId rg = e.children[1];
        bool inner = j.join_type() == LogicalJoinType::kInner ||
                     j.join_type() == LogicalJoinType::kCross;
        std::set<ColumnId> pair_reps;
        for (const auto& [a, b] :
             j.EquiKeys(memo_->group(lg).output, memo_->group(rg).output)) {
          pair_reps.insert(props_.equivalence.Find(a));
        }
        auto visible_in = [&](GroupId grp, ColumnId rep) {
          for (const auto& b : memo_->group(grp).output) {
            if (props_.equivalence.Find(b.id) == rep) return true;
          }
          return false;
        };
        if (prop.is_control()) {
          double c = BestCost(lg, DistributionProperty::Control());
          if (c < kInfiniteCost) {
            double r = BestCost(rg, DistributionProperty::Control());
            if (r < kInfiniteCost) best = std::min(best, c + r);
          }
        } else if (prop.is_replicated()) {
          double c = BestCost(lg, DistributionProperty::Replicated());
          if (c < kInfiniteCost) {
            double r = BestCost(rg, DistributionProperty::Replicated());
            if (r < kInfiniteCost) best = std::min(best, c + r);
          }
        } else if (want_dist) {
          ColumnId rep = prop.columns[0];
          if (visible_in(lg, rep)) {
            double l = BestCost(lg, prop);
            if (l < kInfiniteCost) {
              double r = BestCost(rg, DistributionProperty::Replicated());
              if (r < kInfiniteCost) best = std::min(best, l + r);
              if (pair_reps.count(rep) > 0 && visible_in(rg, rep)) {
                double rr = BestCost(rg, prop);
                if (rr < kInfiniteCost) best = std::min(best, l + rr);
              }
            }
          }
          if (inner && visible_in(rg, rep)) {
            double l = BestCost(lg, DistributionProperty::Replicated());
            if (l < kInfiniteCost) {
              double r = BestCost(rg, prop);
              if (r < kInfiniteCost) best = std::min(best, l + r);
            }
          }
        } else {  // any distributed
          double l_any = BestAnyDistributed(lg);
          if (l_any < kInfiniteCost) {
            double r = BestCost(rg, DistributionProperty::Replicated());
            if (r < kInfiniteCost) best = std::min(best, l_any + r);
          }
          if (inner) {
            double l = BestCost(lg, DistributionProperty::Replicated());
            if (l < kInfiniteCost) {
              double r_any = BestAnyDistributed(rg);
              if (r_any < kInfiniteCost) best = std::min(best, l + r_any);
            }
          }
          for (ColumnId rep : pair_reps) {
            DistributionProperty both =
                DistributionProperty::Distributed({rep});
            double l = BestCost(lg, both);
            if (l >= kInfiniteCost) continue;
            double r = BestCost(rg, both);
            if (r < kInfiniteCost) best = std::min(best, l + r);
          }
        }
        break;
      }
      case LogicalOpKind::kAggregate: {
        const auto& agg = static_cast<const LogicalAggregate&>(*e.op);
        GroupId child = e.children[0];
        std::set<ColumnId> group_reps;
        for (ColumnId c : agg.group_by()) {
          group_reps.insert(props_.equivalence.Find(c));
        }
        bool splittable = !HasDistinctAggregate(agg);
        double local_rows = std::min(memo_->group(child).cardinality,
                                     n * std::max(1.0, g.cardinality));
        if (prop.is_replicated() || prop.is_control()) {
          best = std::min(best, BestCost(child, prop));
          if (prop.is_control() && splittable) {
            double moved = agg.group_by().empty() ? n : local_rows;
            double c = BestAnyDistributed(child);
            if (c < kInfiniteCost) {
              best = std::min(
                  best, c + cost_model_.Cost(DmsOpKind::kPartitionMove, moved,
                                             g.row_width));
            }
          }
        } else {
          auto try_rep = [&](ColumnId rep) {
            if (group_reps.count(rep) == 0) return;
            DistributionProperty d = DistributionProperty::Distributed({rep});
            double c = BestCost(child, d);
            if (c < kInfiniteCost) best = std::min(best, c);  // single phase
            if (splittable) {
              double any = BestAnyDistributed(child);
              if (any < kInfiniteCost) {
                best = std::min(
                    any + cost_model_.Cost(DmsOpKind::kShuffle, local_rows,
                                           g.row_width),
                    best);
              }
            }
          };
          if (want_dist) {
            try_rep(prop.columns[0]);
          } else {
            for (ColumnId rep : group_reps) try_rep(rep);
          }
        }
        best = std::min(best, PreaggCost(gid, e, prop));
        break;
      }
      case LogicalOpKind::kLimit: {
        const auto& limit = static_cast<const LogicalLimit&>(*e.op);
        GroupId child = e.children[0];
        if (prop.is_replicated()) {
          best = std::min(best, BestCost(child, prop));
        } else if (prop.is_control()) {
          best = std::min(best, BestCost(child, prop));
          double moved = std::min(memo_->group(child).cardinality,
                                  static_cast<double>(limit.limit()) * n);
          double c = BestAnyDistributed(child);
          if (c < kInfiniteCost) {
            best = std::min(best,
                            c + cost_model_.Cost(DmsOpKind::kPartitionMove,
                                                 moved, g.row_width));
          }
        }
        break;
      }
      case LogicalOpKind::kUnionAll: {
        const auto& u = static_cast<const LogicalUnionAll&>(*e.op);
        auto sum_demand = [&](auto&& per_child) -> double {
          double total = 0;
          for (size_t i = 0; i < e.children.size(); ++i) {
            double c = per_child(i);
            if (c >= kInfiniteCost) return kInfiniteCost;
            total += c;
          }
          return total;
        };
        if (prop.is_replicated() || prop.is_control()) {
          best = std::min(best, sum_demand([&](size_t i) {
            return BestCost(e.children[i], prop);
          }));
        } else if (want_any) {
          best = std::min(best, sum_demand([&](size_t i) {
            return BestAnyDistributed(e.children[i]);
          }));
        } else {
          // Aligned (collocated) union on an output position.
          for (size_t pos = 0; pos < u.outputs().size(); ++pos) {
            if (props_.equivalence.Find(u.outputs()[pos].id) !=
                prop.columns[0]) {
              continue;
            }
            best = std::min(best, sum_demand([&](size_t i) {
              return BestCost(e.children[i],
                              DistributionProperty::Distributed(
                                  {u.child_columns()[i][pos]}));
            }));
          }
        }
        break;
      }
    }
  }
  return best;
}

double TopDownPdwOptimizer::PreaggCost(GroupId /*gid*/, const GroupExpr& e,
                                       const DistributionProperty& prop) {
  if (!opts_.enable_preagg) return kInfiniteCost;
  const auto& agg = static_cast<const LogicalAggregate&>(*e.op);
  // Same duplicate-sensitivity gates as the bottom-up enumerator: DISTINCT
  // aggregates are not decomposable and scalar aggregates keep the
  // at-the-aggregate two-phase path only.
  if (HasDistinctAggregate(agg) || agg.group_by().empty()) return kInfiniteCost;

  GroupId child = e.children[0];
  const Group& cg = memo_->group(child);
  double n = cost_model_.num_nodes();
  bool want_any =
      prop.kind == DistributionKind::kDistributed && prop.columns.empty();

  std::set<ColumnId> group_reps;
  for (ColumnId c : agg.group_by()) {
    group_reps.insert(props_.equivalence.Find(c));
  }

  double best = kInfiniteCost;
  // Accept an alternative whose global aggregate lands on `final_prop` when
  // it satisfies the demanded property.
  auto match = [&](const DistributionProperty& final_prop, double cost) {
    DistributionProperty f = final_prop.Canonical(props_.equivalence);
    if (f == prop || (want_any && f.kind == DistributionKind::kDistributed)) {
      best = std::min(best, cost);
    }
  };

  for (const GroupExpr& jx : cg.exprs) {
    if (jx.op->kind() != LogicalOpKind::kJoin) continue;
    const auto& j = static_cast<const LogicalJoin&>(*jx.op);
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

      // K = {group-by ∩ side} ∪ {side's equi keys}, in enumeration order.
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

      double d = memo_->estimator().GroupCardinality(partial_keys,
                                                     sgr.cardinality);
      double partial_rows = std::min(sgr.cardinality, n * std::max(1.0, d));
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
          1.0, cg.cardinality * std::min(1.0, partial_rows /
                                                  std::max(1.0,
                                                           sgr.cardinality)));
      double join_width = partial_width + ogr.row_width;
      double side_bytes = sgr.cardinality * std::max(1.0, sgr.row_width);

      // Source properties of the pushed side. The bottom-up enumerator
      // walks the side's whole option frontier; every frontier property on
      // non-K classes costs downstream exactly like AnyDistributed and is
      // dominated by it, so the candidate set (interesting + natural + any
      // + replicated) covers the optimum.
      for (const DistributionProperty& sp : CandidateProps(sg)) {
        if (sp.is_control()) continue;
        double s_cost = BestCost(sg, sp);
        if (s_cost >= kInfiniteCost) continue;
        double cpu = cost_model_.params().lambda_preagg *
                     (sp.is_replicated() ? side_bytes : side_bytes / n);

        DistributionProperty pdist = sp;
        if (pdist.kind == DistributionKind::kDistributed) {
          for (ColumnId rep : pdist.columns) {
            if (key_reps.count(props_.equivalence.Find(rep)) == 0) {
              pdist = DistributionProperty::AnyDistributed();
              break;
            }
          }
        }

        struct PartialMove {
          bool has = false;
          DmsOpKind kind = DmsOpKind::kShuffle;
          DistributionProperty dist;
        };
        std::vector<PartialMove> pmoves;
        pmoves.push_back(PartialMove{false, DmsOpKind::kShuffle, pdist});
        if (pdist.kind == DistributionKind::kDistributed) {
          for (ColumnId k : partial_keys) {
            pmoves.push_back(PartialMove{
                true, DmsOpKind::kShuffle,
                DistributionProperty::Distributed({k})});
          }
          pmoves.push_back(PartialMove{true, DmsOpKind::kBroadcastMove,
                                       DistributionProperty::Replicated()});
        }

        for (const PartialMove& pm : pmoves) {
          double pmove_cost =
              pm.has ? cost_model_.Cost(pm.kind, partial_rows, partial_width)
                     : 0;
          DistributionProperty P = pm.dist.Canonical(props_.equivalence);

          for (const DistributionProperty& op : CandidateProps(og)) {
            if (op.is_control()) continue;
            double o_cost = BestCost(og, op);
            if (o_cost >= kInfiniteCost) continue;

            const DistributionProperty& L = side == 0 ? P : op;
            const DistributionProperty& R = side == 0 ? op : P;
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

            double base_cost = s_cost + o_cost + cpu + pmove_cost;
            if (jdist.is_replicated()) {
              match(jdist, base_cost);
              continue;
            }
            if (jdist.is_distributed_on_known_columns()) {
              bool subset = true;
              for (ColumnId rep : jdist.columns) {
                if (group_reps.count(rep) == 0) subset = false;
              }
              if (subset) match(jdist, base_cost);
            }
            for (ColumnId gcol : agg.group_by()) {
              match(DistributionProperty::Distributed({gcol}),
                    base_cost + cost_model_.Cost(DmsOpKind::kShuffle,
                                                 join_rows, join_width));
            }
            match(DistributionProperty::Control(),
                  base_cost + cost_model_.Cost(DmsOpKind::kPartitionMove,
                                               join_rows, join_width));
          }
        }
      }
    }
  }
  return best;
}

Result<double> TopDownPdwOptimizer::OptimalCost() {
  if (memo_->root() == kInvalidGroupId) {
    return Status::Internal("memo has no root group");
  }
  GroupId root = memo_->root();
  double best = std::min({BestAnyDistributed(root),
                          BestCost(root, DistributionProperty::Replicated()),
                          BestCost(root, DistributionProperty::Control())});
  if (best >= kInfiniteCost) {
    return Status::Internal("top-down search found no valid plan");
  }
  return best;
}

}  // namespace pdw
