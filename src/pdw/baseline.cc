#include "pdw/baseline.h"

#include <algorithm>

#include "common/string_util.h"
#include "optimizer/serial_optimizer.h"

namespace pdw {

namespace {

class Parallelizer {
 public:
  Parallelizer(const Topology& topology, const ColumnEquivalence& equiv,
               const DmsCostParameters& params)
      : equiv_(equiv), cost_model_(params, topology.num_compute_nodes) {}

  Result<PlanNodePtr> Run(PlanNodePtr root) {
    // Like the PDW plan, the baseline's final Return streams per-node
    // results to the client without a DMS step, so no terminal gather.
    return Walk(std::move(root));
  }

 private:
  PlanNodePtr MakeMove(PlanNodePtr child, DmsOpKind kind, ColumnId shuffle_col,
                       DistributionProperty target) {
    auto move = std::make_unique<PlanNode>();
    move->kind = PhysOpKind::kMove;
    move->move_kind = kind;
    if (shuffle_col != kInvalidColumnId) {
      move->shuffle_columns = {shuffle_col};
    }
    move->output = child->output;
    move->cardinality = child->cardinality;
    move->row_width = child->row_width;
    move->move_cost =
        cost_model_.Cost(kind, child->cardinality, child->row_width);
    move->distribution = std::move(target);
    move->children.push_back(std::move(child));
    return move;
  }

  PlanNodePtr Resort(PlanNodePtr child, std::vector<SortItem> items) {
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PhysOpKind::kSort;
    sort->sort_items = std::move(items);
    sort->output = child->output;
    sort->cardinality = child->cardinality;
    sort->row_width = child->row_width;
    sort->distribution = child->distribution;
    sort->children.push_back(std::move(child));
    return sort;
  }

  double MoveCost(const PlanNode& stream, DmsOpKind kind) const {
    return cost_model_.Cost(kind, stream.cardinality, stream.row_width);
  }

  bool DistributedOnClass(const DistributionProperty& p, ColumnId rep) const {
    if (p.kind != DistributionKind::kDistributed || p.columns.size() != 1) {
      return false;
    }
    return equiv_.Find(p.columns[0]) == rep;
  }

  Result<PlanNodePtr> Walk(PlanNodePtr node) {
    for (auto& c : node->children) {
      PDW_ASSIGN_OR_RETURN(c, Walk(std::move(c)));
    }
    switch (node->kind) {
      case PhysOpKind::kTableScan: {
        const TableDef* t = node->table;
        if (t == nullptr || t->distribution.is_replicated()) {
          node->distribution = DistributionProperty::Replicated();
        } else {
          std::vector<ColumnId> cols;
          for (const std::string& dc : t->distribution.columns) {
            for (const auto& b : node->output) {
              if (EqualsIgnoreCase(b.name, dc)) cols.push_back(b.id);
            }
          }
          node->distribution = DistributionProperty::Distributed(std::move(cols));
        }
        return node;
      }
      case PhysOpKind::kEmpty:
        node->distribution = DistributionProperty::Replicated();
        return node;
      case PhysOpKind::kFilter:
      case PhysOpKind::kSort:
        node->distribution = node->children[0]->distribution;
        return node;
      case PhysOpKind::kProject: {
        DistributionProperty d = node->children[0]->distribution;
        if (d.kind == DistributionKind::kDistributed) {
          for (ColumnId col : d.columns) {
            ColumnId rep = equiv_.Find(col);
            bool visible = false;
            for (const auto& b : node->output) {
              if (equiv_.Find(b.id) == rep) visible = true;
            }
            if (!visible) {
              d = DistributionProperty::AnyDistributed();
              break;
            }
          }
        }
        node->distribution = d;
        return node;
      }
      case PhysOpKind::kHashJoin:
      case PhysOpKind::kNestedLoopJoin:
        return FixJoin(std::move(node));
      case PhysOpKind::kUnionAll: {
        // Children must agree in kind; trim any replicated branch onto its
        // position-0 feed column when the others are distributed.
        bool any_dist = false;
        for (const auto& c : node->children) {
          if (c->distribution.kind == DistributionKind::kDistributed) {
            any_dist = true;
          }
        }
        if (any_dist) {
          for (size_t i = 0; i < node->children.size(); ++i) {
            if (!node->children[i]->distribution.is_replicated()) continue;
            ColumnId col = node->union_inputs[i].empty()
                               ? kInvalidColumnId
                               : node->union_inputs[i][0];
            if (col == kInvalidColumnId) {
              return Status::Internal("cannot repair union branch");
            }
            node->children[i] = MakeMove(
                std::move(node->children[i]), DmsOpKind::kTrimMove, col,
                DistributionProperty::Distributed({col}));
          }
          node->distribution = DistributionProperty::AnyDistributed();
        } else {
          node->distribution = DistributionProperty::Replicated();
        }
        return node;
      }
      case PhysOpKind::kHashAggregate:
        return FixAggregate(std::move(node));
      case PhysOpKind::kLimit: {
        DistributionProperty d = node->children[0]->distribution;
        if (d.kind == DistributionKind::kDistributed) {
          // Gather before limiting (no local/global split in the
          // baseline).
          bool sorted = node->children[0]->kind == PhysOpKind::kSort;
          std::vector<SortItem> sort_items = node->children[0]->sort_items;
          node->children[0] =
              MakeMove(std::move(node->children[0]), DmsOpKind::kPartitionMove,
                       kInvalidColumnId, DistributionProperty::Control());
          if (sorted) {
            node->children[0] =
                Resort(std::move(node->children[0]), std::move(sort_items));
          }
          d = DistributionProperty::Control();
        }
        node->distribution = d;
        return node;
      }
      default:
        node->distribution = node->children.empty()
                                 ? DistributionProperty::AnyDistributed()
                                 : node->children[0]->distribution;
        return node;
    }
  }

  Result<PlanNodePtr> FixJoin(PlanNodePtr node) {
    const DistributionProperty& L = node->children[0]->distribution;
    const DistributionProperty& R = node->children[1]->distribution;
    LogicalJoinType jt = node->join_type;
    bool preserving = jt == LogicalJoinType::kSemi ||
                      jt == LogicalJoinType::kAnti ||
                      jt == LogicalJoinType::kLeftOuter;

    // Already compatible?
    auto compatible = [&]() -> bool {
      if (L.is_replicated() && R.is_replicated()) return true;
      if (L.kind == DistributionKind::kDistributed && R.is_replicated()) {
        return true;
      }
      if (L.is_replicated() && R.kind == DistributionKind::kDistributed) {
        return !preserving;
      }
      if (L.kind == DistributionKind::kDistributed &&
          R.kind == DistributionKind::kDistributed) {
        if (node->equi_keys.empty()) return false;
        for (const auto& [a, b] : node->equi_keys) {
          if (DistributedOnClass(L, equiv_.Find(a)) &&
              DistributedOnClass(R, equiv_.Find(b))) {
            return true;
          }
        }
      }
      return false;
    };

    auto output_dist = [&]() -> DistributionProperty {
      const DistributionProperty& l = node->children[0]->distribution;
      const DistributionProperty& r = node->children[1]->distribution;
      if (l.kind == DistributionKind::kDistributed) return l;
      if (r.kind == DistributionKind::kDistributed) return r;
      return DistributionProperty::Replicated();
    };

    if (compatible()) {
      node->distribution = output_dist();
      return node;
    }

    // Candidate repairs, each scored by modeled move cost.
    struct Fix {
      double cost;
      int kind;  // 0=shuffle both, 1=shuffle L, 2=shuffle R,
                 // 3=broadcast L, 4=broadcast R
      ColumnId l_col = kInvalidColumnId;
      ColumnId r_col = kInvalidColumnId;
    };
    std::vector<Fix> fixes;
    const PlanNode& lhs = *node->children[0];
    const PlanNode& rhs = *node->children[1];
    if (!node->equi_keys.empty()) {
      ColumnId a = node->equi_keys[0].first;
      ColumnId b = node->equi_keys[0].second;
      bool l_dist = L.kind == DistributionKind::kDistributed;
      bool r_dist = R.kind == DistributionKind::kDistributed;
      if (l_dist && r_dist) {
        fixes.push_back(Fix{MoveCost(lhs, DmsOpKind::kShuffle) +
                                MoveCost(rhs, DmsOpKind::kShuffle),
                            0, a, b});
        if (DistributedOnClass(R, equiv_.Find(b))) {
          fixes.push_back(Fix{MoveCost(lhs, DmsOpKind::kShuffle), 1, a, b});
        }
        if (DistributedOnClass(L, equiv_.Find(a))) {
          fixes.push_back(Fix{MoveCost(rhs, DmsOpKind::kShuffle), 2, a, b});
        }
      }
      if (L.is_replicated() && r_dist && preserving) {
        // Trim the replicated preserving side onto the join key.
        fixes.push_back(Fix{MoveCost(lhs, DmsOpKind::kTrimMove) +
                                (DistributedOnClass(R, equiv_.Find(b))
                                     ? 0.0
                                     : MoveCost(rhs, DmsOpKind::kShuffle)),
                            1, a, b});
      }
    }
    if (R.kind == DistributionKind::kDistributed) {
      fixes.push_back(Fix{MoveCost(rhs, DmsOpKind::kBroadcastMove), 4});
    }
    if (L.kind == DistributionKind::kDistributed && !preserving) {
      fixes.push_back(Fix{MoveCost(lhs, DmsOpKind::kBroadcastMove), 3});
    }
    if (fixes.empty()) {
      // Last resort: broadcast the right side (valid for every join type
      // we produce, since the left stream stays in place).
      if (R.kind == DistributionKind::kDistributed) {
        fixes.push_back(Fix{MoveCost(rhs, DmsOpKind::kBroadcastMove), 4});
      } else {
        return Status::Internal("baseline cannot repair join distribution");
      }
    }
    const Fix* best = &fixes[0];
    for (const Fix& f : fixes) {
      if (f.cost < best->cost) best = &f;
    }
    switch (best->kind) {
      case 0:
        node->children[0] = MakeMove(
            std::move(node->children[0]), DmsOpKind::kShuffle, best->l_col,
            DistributionProperty::Distributed({best->l_col}));
        node->children[1] = MakeMove(
            std::move(node->children[1]), DmsOpKind::kShuffle, best->r_col,
            DistributionProperty::Distributed({best->r_col}));
        break;
      case 1: {
        DmsOpKind kind = node->children[0]->distribution.is_replicated()
                             ? DmsOpKind::kTrimMove
                             : DmsOpKind::kShuffle;
        node->children[0] = MakeMove(
            std::move(node->children[0]), kind, best->l_col,
            DistributionProperty::Distributed({best->l_col}));
        if (!DistributedOnClass(node->children[1]->distribution,
                                equiv_.Find(best->r_col))) {
          node->children[1] = MakeMove(
              std::move(node->children[1]), DmsOpKind::kShuffle, best->r_col,
              DistributionProperty::Distributed({best->r_col}));
        }
        break;
      }
      case 2:
        node->children[1] = MakeMove(
            std::move(node->children[1]), DmsOpKind::kShuffle, best->r_col,
            DistributionProperty::Distributed({best->r_col}));
        break;
      case 3:
        node->children[0] =
            MakeMove(std::move(node->children[0]), DmsOpKind::kBroadcastMove,
                     kInvalidColumnId, DistributionProperty::Replicated());
        break;
      case 4:
        node->children[1] =
            MakeMove(std::move(node->children[1]), DmsOpKind::kBroadcastMove,
                     kInvalidColumnId, DistributionProperty::Replicated());
        break;
    }
    node->distribution = output_dist();
    return node;
  }

  Result<PlanNodePtr> FixAggregate(PlanNodePtr node) {
    const DistributionProperty& C = node->children[0]->distribution;
    if (C.is_replicated() || C.is_control()) {
      node->distribution = C;
      return node;
    }
    // Local aggregation is valid when the input hash columns are all
    // group-by columns (by class).
    bool local_ok = C.is_distributed_on_known_columns();
    if (local_ok) {
      for (ColumnId col : C.columns) {
        bool in_groups = false;
        for (ColumnId g : node->group_by) {
          if (equiv_.AreEquivalent(col, g)) in_groups = true;
        }
        if (!in_groups) local_ok = false;
      }
    }
    if (local_ok) {
      node->distribution = C;
      return node;
    }
    if (!node->group_by.empty()) {
      ColumnId target = node->group_by[0];
      node->children[0] = MakeMove(
          std::move(node->children[0]), DmsOpKind::kShuffle, target,
          DistributionProperty::Distributed({target}));
      node->distribution = DistributionProperty::Distributed({target});
      return node;
    }
    // Scalar aggregate: gather everything to the control node.
    node->children[0] =
        MakeMove(std::move(node->children[0]), DmsOpKind::kPartitionMove,
                 kInvalidColumnId, DistributionProperty::Control());
    node->distribution = DistributionProperty::Control();
    return node;
  }

  const ColumnEquivalence& equiv_;
  DmsCostModel cost_model_;
};

}  // namespace

Result<PlanNodePtr> ParallelizeSerialPlan(PlanNodePtr serial_plan,
                                          const Topology& topology,
                                          const ColumnEquivalence& equivalence,
                                          const DmsCostParameters& params) {
  Parallelizer p(topology, equivalence, params);
  return p.Run(std::move(serial_plan));
}

Result<SerialBaseline> BuildSerialBaseline(Memo* memo,
                                           const Topology& topology,
                                           const DmsCostParameters& params) {
  SerialBaseline out;
  PDW_ASSIGN_OR_RETURN(out.serial_plan, ExtractBestSerialPlan(memo));
  const InterestingProperties props = DeriveInterestingProperties(*memo);
  PDW_ASSIGN_OR_RETURN(out.plan,
                       ParallelizeSerialPlan(out.serial_plan->Clone(), topology,
                                             props.equivalence, params));
  out.cost = TotalMoveCost(*out.plan);
  return out;
}

}  // namespace pdw
