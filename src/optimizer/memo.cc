#include "optimizer/memo.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace pdw {

namespace {

size_t HashCombine(size_t a, size_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

size_t ExprFingerprint(const LogicalOp& payload,
                       const std::vector<GroupId>& children) {
  size_t h = payload.PayloadHash();
  for (GroupId c : children) h = HashCombine(h, std::hash<int32_t>()(c));
  return h;
}

/// Finds the base-table access underlying a join-cluster leaf (a Get,
/// possibly under filters/projects); nullptr when the leaf is something
/// more complex (aggregate, semi join, ...).
const LogicalGet* FindUnderlyingGet(const LogicalOp& op) {
  if (op.kind() == LogicalOpKind::kGet) {
    return &static_cast<const LogicalGet&>(op);
  }
  if ((op.kind() == LogicalOpKind::kFilter ||
       op.kind() == LogicalOpKind::kProject) &&
      op.children().size() == 1) {
    return FindUnderlyingGet(*op.children()[0]);
  }
  return nullptr;
}

}  // namespace

GroupId Memo::NewGroup(std::vector<ColumnBinding> output, double cardinality,
                       double row_width) {
  Group g;
  g.id = static_cast<GroupId>(groups_.size());
  g.output = std::move(output);
  g.cardinality = cardinality;
  g.row_width = row_width;
  groups_.push_back(std::move(g));
  return groups_.back().id;
}

GroupId Memo::AddExpr(LogicalOpPtr payload, std::vector<GroupId> children,
                      GroupId target_group) {
  size_t fp = ExprFingerprint(*payload, children);
  {
    auto [lo, hi] = expr_index_.equal_range(fp);
    for (auto it = lo; it != hi; ++it) {
      const auto& [gid, idx] = it->second;
      const GroupExpr& e =
          groups_[static_cast<size_t>(gid)].exprs[static_cast<size_t>(idx)];
      if (e.children == children && e.op->PayloadEquals(*payload)) {
        // Already present somewhere; never duplicate.
        return target_group != kInvalidGroupId ? target_group : gid;
      }
    }
  }
  GroupExpr e;
  e.op = std::move(payload);
  e.children = std::move(children);

  GroupId gid = target_group;
  if (gid == kInvalidGroupId) {
    gid = NewGroup({}, 0, 0);
    ComputeGroupProperties(&groups_[static_cast<size_t>(gid)], e);
  }
  Group& g = groups_[static_cast<size_t>(gid)];
  expr_index_.emplace(fp, std::make_pair(gid, static_cast<int>(g.exprs.size())));
  g.exprs.push_back(std::move(e));
  ++num_exprs_;
  return gid;
}

void Memo::ComputeGroupProperties(Group* g, const GroupExpr& e) {
  std::vector<std::vector<ColumnBinding>> child_outputs;
  std::vector<double> child_cards;
  for (GroupId c : e.children) {
    child_outputs.push_back(groups_[static_cast<size_t>(c)].output);
    child_cards.push_back(groups_[static_cast<size_t>(c)].cardinality);
  }
  g->output = e.op->ComputeOutput(child_outputs);
  g->row_width = estimator_->RowWidth(g->output);

  const CardinalityEstimator& est = *estimator_;
  switch (e.op->kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(*e.op);
      double rows = get.table() != nullptr ? get.table()->stats.row_count : 0;
      g->cardinality = rows > 0 ? rows : 1000;
      break;
    }
    case LogicalOpKind::kEmpty:
      g->cardinality = 0;
      break;
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*e.op);
      g->cardinality = child_cards[0] * est.Selectivity(f.conjuncts());
      break;
    }
    case LogicalOpKind::kProject:
      g->cardinality = child_cards[0];
      break;
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*e.op);
      double sel = est.Selectivity(j.conditions());
      switch (j.join_type()) {
        case LogicalJoinType::kInner:
        case LogicalJoinType::kCross:
          g->cardinality = child_cards[0] * child_cards[1] * sel;
          break;
        case LogicalJoinType::kLeftOuter:
          g->cardinality =
              std::max(child_cards[0], child_cards[0] * child_cards[1] * sel);
          break;
        case LogicalJoinType::kSemi: {
          double match = std::min(1.0, child_cards[1] * sel);
          g->cardinality = child_cards[0] * match;
          break;
        }
        case LogicalJoinType::kAnti: {
          double match = std::min(1.0, child_cards[1] * sel);
          g->cardinality = child_cards[0] * std::max(0.0, 1.0 - match);
          break;
        }
      }
      break;
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(*e.op);
      g->cardinality = est.GroupCardinality(a.group_by(), child_cards[0]);
      break;
    }
    case LogicalOpKind::kSort:
      g->cardinality = child_cards[0];
      break;
    case LogicalOpKind::kUnionAll: {
      double total = 0;
      for (double c : child_cards) total += c;
      g->cardinality = total;
      break;
    }
    case LogicalOpKind::kLimit: {
      const auto& l = static_cast<const LogicalLimit&>(*e.op);
      g->cardinality = std::min(child_cards[0], static_cast<double>(l.limit()));
      break;
    }
  }
  g->cardinality = std::max(0.0, g->cardinality);
}

Result<GroupId> Memo::InsertTree(const LogicalOpPtr& tree) {
  root_ = InsertTreeInternal(tree);
  ExploreSemiJoinAlternatives();
  return root_;
}

GroupId Memo::InsertTreeInternal(const LogicalOpPtr& op) {
  if (op->kind() == LogicalOpKind::kJoin) {
    const auto& j = static_cast<const LogicalJoin&>(*op);
    if (j.join_type() == LogicalJoinType::kInner ||
        j.join_type() == LogicalJoinType::kCross) {
      return InsertJoinCluster(op);
    }
  }
  std::vector<GroupId> children;
  for (const auto& c : op->children()) {
    children.push_back(InsertTreeInternal(c));
  }
  return AddExpr(op->WithChildren({}), std::move(children));
}

namespace {

/// Gathers an inner-join cluster: the leaf subtrees and the join conjuncts
/// of a maximal region of inner/cross joins.
void CollectCluster(const LogicalOpPtr& op, std::vector<LogicalOpPtr>* leaves,
                    std::vector<ScalarExprPtr>* conjuncts) {
  if (op->kind() == LogicalOpKind::kJoin) {
    const auto& j = static_cast<const LogicalJoin&>(*op);
    if (j.join_type() == LogicalJoinType::kInner ||
        j.join_type() == LogicalJoinType::kCross) {
      CollectCluster(op->children()[0], leaves, conjuncts);
      CollectCluster(op->children()[1], leaves, conjuncts);
      conjuncts->insert(conjuncts->end(), j.conditions().begin(),
                        j.conditions().end());
      return;
    }
  }
  leaves->push_back(op);
}

int Popcount(uint32_t v) { return __builtin_popcount(v); }

}  // namespace

GroupId Memo::InsertJoinCluster(const LogicalOpPtr& top) {
  std::vector<LogicalOpPtr> leaf_trees;
  std::vector<ScalarExprPtr> conjuncts;
  CollectCluster(top, &leaf_trees, &conjuncts);
  int n = static_cast<int>(leaf_trees.size());

  struct Leaf {
    GroupId gid;
    std::set<ColumnId> cols;
    double card;
    // Ids of the leaf's hash-distribution columns (empty when replicated or
    // unknown) — used by distribution-aware seeding.
    std::set<ColumnId> dist_cols;
    bool replicated = false;
  };
  std::vector<Leaf> leaves;
  for (const auto& lt : leaf_trees) {
    Leaf leaf;
    leaf.gid = InsertTreeInternal(lt);
    const Group& g = group(leaf.gid);
    for (const auto& b : g.output) leaf.cols.insert(b.id);
    leaf.card = g.cardinality;
    if (const LogicalGet* get = FindUnderlyingGet(*lt)) {
      const TableDef* t = get->table();
      if (t != nullptr) {
        if (t->distribution.is_replicated()) {
          leaf.replicated = true;
        } else {
          for (const std::string& dc : t->distribution.columns) {
            for (const auto& b : get->bindings()) {
              if (EqualsIgnoreCase(b.name, dc)) leaf.dist_cols.insert(b.id);
            }
          }
        }
      }
    }
    leaves.push_back(std::move(leaf));
  }

  if (n == 1) return leaves[0].gid;

  auto leaf_of_column = [&](ColumnId id) -> int {
    for (int i = 0; i < n; ++i) {
      if (leaves[static_cast<size_t>(i)].cols.count(id) > 0) return i;
    }
    return -1;
  };

  // Leaf mask each conjunct touches.
  std::vector<uint32_t> conjunct_masks;
  for (const auto& c : conjuncts) {
    std::set<ColumnId> used;
    CollectColumns(c, &used);
    uint32_t mask = 0;
    bool in_cluster = true;
    for (ColumnId id : used) {
      int leaf = leaf_of_column(id);
      if (leaf < 0) in_cluster = false;
      else mask |= 1u << leaf;
    }
    conjunct_masks.push_back(in_cluster ? mask : 0);
  }

  auto connected = [&](uint32_t mask) {
    if (mask == 0) return false;
    uint32_t reached = mask & (~mask + 1);  // lowest set bit
    while (true) {
      uint32_t grew = reached;
      for (size_t k = 0; k < conjuncts.size(); ++k) {
        uint32_t cm = conjunct_masks[k];
        if (cm != 0 && (cm & reached) != 0 && (cm & mask) == cm) {
          grew |= cm;
        }
      }
      if (grew == reached) break;
      reached = grew;
    }
    return reached == mask;
  };

  // The join conjuncts inside one subset, refilled per call: its capacity
  // is reused, so the estimate allocates nothing per DP subset.
  std::vector<ScalarExprPtr> subset_conjuncts;
  subset_conjuncts.reserve(conjuncts.size());
  auto subset_cardinality = [&](uint32_t mask) {
    double card = 1;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) card *= leaves[static_cast<size_t>(i)].card;
    }
    subset_conjuncts.clear();
    for (size_t k = 0; k < conjuncts.size(); ++k) {
      uint32_t cm = conjunct_masks[k];
      if (cm == 0 || Popcount(cm) < 2 || (cm & mask) != cm) continue;
      subset_conjuncts.push_back(conjuncts[k]);
    }
    return std::max(0.0, card * estimator_->Selectivity(subset_conjuncts));
  };

  auto subset_output = [&](uint32_t mask) {
    std::vector<ColumnBinding> out;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        const Group& g = group(leaves[static_cast<size_t>(i)].gid);
        out.insert(out.end(), g.output.begin(), g.output.end());
      }
    }
    return out;
  };

  // Conjuncts that span split (L, R) within `mask`.
  auto split_conditions = [&](uint32_t l_mask, uint32_t r_mask) {
    std::vector<ScalarExprPtr> conds;
    for (size_t k = 0; k < conjuncts.size(); ++k) {
      uint32_t cm = conjunct_masks[k];
      if (cm == 0 || Popcount(cm) < 2) continue;
      if ((cm & (l_mask | r_mask)) != cm) continue;
      if ((cm & l_mask) == 0 || (cm & r_mask) == 0) continue;
      conds.push_back(conjuncts[k]);
    }
    return conds;
  };

  const uint32_t full = n >= 32 ? 0xffffffffu : (1u << n) - 1;
  bool graph_connected = connected(full);

  // Decide full DP vs. degraded enumeration (the "timeout" fallback).
  bool full_dp = n < 32 && n <= options_.max_dp_relations && graph_connected;
  // level_masks[s]: connected masks of popcount s, ascending — the DP
  // levels.
  std::vector<std::vector<uint32_t>> level_masks;
  if (full_dp) {
    level_masks.assign(static_cast<size_t>(n) + 1, {});
    for (uint32_t mask = 1; mask <= full; ++mask) {
      int size = Popcount(mask);
      if (size >= 2 && connected(mask)) {
        level_masks[static_cast<size_t>(size)].push_back(mask);
      }
    }
    // Rough bound: each subset contributes ~2*size split expressions.
    size_t connected_subsets = 0;
    for (int s = 2; s <= n; ++s) {
      connected_subsets += level_masks[static_cast<size_t>(s)].size();
    }
    if (connected_subsets * 2 * static_cast<size_t>(n) + num_exprs_ >
        static_cast<size_t>(options_.expr_budget)) {
      full_dp = false;
    }
  }
  // Any degradation of a connected cluster — budget hit or cluster wider
  // than max_dp_relations — is the graceful-degradation path and is
  // surfaced to EXPLAIN / DMVs. A disconnected cluster is not: it needs
  // cross joins that the DP never enumerates anyway.
  if (!full_dp && graph_connected) {
    budget_exhausted_ = true;
  }

  if (full_dp) {
    // Dense mask -> group table: the split loop probes it ~3^n times (every
    // submask of every connected subset), so indexed loads beat a std::map
    // by an order of magnitude. 4 bytes * 2^n stays under 64 MB through
    // n = 24; the budget check above caps realistic n far below that, and
    // the sparse map covers anyone who raises every knob at once.
    const bool dense = n <= 24;
    std::vector<GroupId> dense_group;
    if (dense) {
      dense_group.assign(static_cast<size_t>(full) + 1, kInvalidGroupId);
    }
    std::map<uint32_t, GroupId> sparse_group;
    auto subset_lookup = [&](uint32_t m) -> GroupId {
      if (dense) return dense_group[m];
      auto it = sparse_group.find(m);
      return it == sparse_group.end() ? kInvalidGroupId : it->second;
    };
    auto subset_store = [&](uint32_t m, GroupId g) {
      if (dense) {
        dense_group[m] = g;
      } else {
        sparse_group[m] = g;
      }
    };
    for (int i = 0; i < n; ++i) {
      subset_store(1u << i, leaves[static_cast<size_t>(i)].gid);
    }
    // Bottom-up by subset size, each level in ascending-mask order: every
    // split of a subset is a pair of smaller subsets, so both halves are
    // already committed when the subset's group is built.
    for (int size = 2; size <= n; ++size) {
      for (uint32_t mask : level_masks[static_cast<size_t>(size)]) {
        GroupId gid =
            NewGroup(subset_output(mask), subset_cardinality(mask), 0);
        mutable_group(gid).row_width = estimator_->RowWidth(group(gid).output);
        subset_store(mask, gid);
        // All splits (both orders arise as (L,R) and (R,L)).
        for (uint32_t l = (mask - 1) & mask; l != 0; l = (l - 1) & mask) {
          uint32_t r = mask ^ l;
          GroupId gl = subset_lookup(l);
          GroupId gr = subset_lookup(r);
          if (gl == kInvalidGroupId || gr == kInvalidGroupId) continue;
          std::vector<ScalarExprPtr> conds = split_conditions(l, r);
          if (conds.empty()) continue;  // connected mask => no cross needed
          AddExpr(std::make_shared<LogicalJoin>(LogicalJoinType::kInner,
                                                std::move(conds), nullptr,
                                                nullptr),
                  {gl, gr}, gid);
        }
      }
    }
    return subset_lookup(full);
  }

  // Greedy seed order (§3.1 seeding): distribution-aware collocated pair
  // first when one exists, then connected / collocated / smallest-card
  // next. Shared by the beam's spine and the left-deep fallback.
  auto compute_seed_order = [&]() {
    std::vector<int> order;
    std::vector<bool> used(static_cast<size_t>(n), false);
    int first = 0;
    for (int i = 1; i < n; ++i) {
      if (leaves[static_cast<size_t>(i)].card <
          leaves[static_cast<size_t>(first)].card) {
        first = i;
      }
    }
    // Distribution-aware seeding starts from a collocated pair when one
    // exists — "for PDW optimization we seed the MEMO with execution plans
    // that consider distribution information of tables, for collocated
    // operations" (§3.1).
    int second = -1;
    if (options_.seed_distribution_aware) {
      double best_pair_card = 0;
      for (size_t k = 0; k < conjuncts.size(); ++k) {
        ColumnId a, b;
        if (conjunct_masks[k] == 0 || Popcount(conjunct_masks[k]) != 2 ||
            !IsColumnEquality(conjuncts[k], &a, &b)) {
          continue;
        }
        int la = leaf_of_column(a);
        int lb = leaf_of_column(b);
        if (la < 0 || lb < 0 || la == lb) continue;
        const Leaf& la_leaf = leaves[static_cast<size_t>(la)];
        const Leaf& lb_leaf = leaves[static_cast<size_t>(lb)];
        bool collocated =
            (la_leaf.dist_cols.count(a) > 0 &&
             lb_leaf.dist_cols.count(b) > 0) ||
            la_leaf.replicated || lb_leaf.replicated;
        if (!collocated) continue;
        double pair_card = la_leaf.card + lb_leaf.card;
        if (second == -1 || pair_card < best_pair_card) {
          best_pair_card = pair_card;
          first = la_leaf.card <= lb_leaf.card ? la : lb;
          second = first == la ? lb : la;
        }
      }
    }
    order.push_back(first);
    used[static_cast<size_t>(first)] = true;
    uint32_t acc_mask = 1u << first;
    if (second >= 0) {
      order.push_back(second);
      used[static_cast<size_t>(second)] = true;
      acc_mask |= 1u << second;
    }
    while (static_cast<int>(order.size()) < n) {
      int best = -1;
      double best_score = -1e18;
      for (int i = 0; i < n; ++i) {
        if (used[static_cast<size_t>(i)]) continue;
        double score = 0;
        uint32_t pair_mask = acc_mask | (1u << i);
        bool connects = false;
        bool collocated = false;
        for (size_t k = 0; k < conjuncts.size(); ++k) {
          uint32_t cm = conjunct_masks[k];
          if (cm == 0 || (cm & (1u << i)) == 0 || (cm & acc_mask) == 0 ||
              (cm & pair_mask) != cm) {
            continue;
          }
          connects = true;
          if (options_.seed_distribution_aware) {
            ColumnId a, b;
            if (IsColumnEquality(conjuncts[k], &a, &b)) {
              const Leaf& leaf = leaves[static_cast<size_t>(i)];
              bool new_side_dist = leaf.dist_cols.count(a) > 0 ||
                                   leaf.dist_cols.count(b) > 0;
              ColumnId other = leaf.cols.count(a) > 0 ? b : a;
              int other_leaf = leaf_of_column(other);
              bool other_side_dist =
                  other_leaf >= 0 &&
                  leaves[static_cast<size_t>(other_leaf)].dist_cols.count(
                      other) > 0;
              if (new_side_dist && other_side_dist) collocated = true;
              if (leaf.replicated ||
                  (other_leaf >= 0 &&
                   leaves[static_cast<size_t>(other_leaf)].replicated)) {
                collocated = true;
              }
            }
          }
        }
        if (connects) score += 1e12;
        if (collocated) score += 1e13;
        score -= leaves[static_cast<size_t>(i)].card;
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      order.push_back(best);
      used[static_cast<size_t>(best)] = true;
      acc_mask |= 1u << best;
    }
    return order;
  };

  const int beam = options_.beam_width;
  if (graph_connected && beam > 0 && n <= 32) {
    // Budget-bounded beam search over the DP levels: keep the top-k
    // cheapest connected subsets per level instead of abandoning
    // enumeration entirely (the graduated replacement for the old
    // all-or-nothing cliff). Ranking ties break on the mask, so the memo
    // is deterministic.
    int k = std::min(
        beam, std::max(2, options_.expr_budget / std::max(1, 2 * n * n)));
    constexpr size_t kMaxSplitsPerSubset = 8;

    std::vector<int> seed = compute_seed_order();
    // Prefix masks of the seeded chain, force-kept per level as the beam's
    // spine: the final level then always has a candidate, so the beam can
    // never do worse than the left-deep fallback.
    std::vector<uint32_t> chain(static_cast<size_t>(n) + 1, 0);
    for (int s = 1; s <= n; ++s) {
      chain[static_cast<size_t>(s)] =
          chain[static_cast<size_t>(s - 1)] |
          (1u << seed[static_cast<size_t>(s - 1)]);
    }

    struct BeamPair {
      uint32_t a = 0;
      uint32_t b = 0;
      std::vector<ScalarExprPtr> conds;
    };
    // surv[s]: masks kept at level s, in commit order. Singletons are
    // never pruned, so every level has combination candidates.
    std::vector<std::vector<uint32_t>> surv(static_cast<size_t>(n) + 1);
    std::map<uint32_t, GroupId> subset_group;
    for (int i = 0; i < n; ++i) {
      subset_group[1u << i] = leaves[static_cast<size_t>(i)].gid;
      surv[1].push_back(1u << i);
    }

    bool beam_failed = false;
    for (int s = 2; s <= n && !beam_failed; ++s) {
      // Candidates: disjoint survivor pairs from levels (i, s-i) joined by
      // at least one conjunct.
      std::map<uint32_t, std::vector<BeamPair>> cands;
      for (int i = 1; i * 2 <= s; ++i) {
        for (uint32_t a : surv[static_cast<size_t>(i)]) {
          for (uint32_t b : surv[static_cast<size_t>(s - i)]) {
            if (i * 2 == s && b <= a) continue;  // unordered pair once
            if ((a & b) != 0) continue;
            std::vector<ScalarExprPtr> conds = split_conditions(a, b);
            if (conds.empty()) continue;
            std::vector<BeamPair>& v = cands[a | b];
            if (v.size() < kMaxSplitsPerSubset) {
              v.push_back(BeamPair{a, b, std::move(conds)});
            }
          }
        }
      }
      if (cands.empty()) {
        beam_failed = true;
        break;
      }
      // Rank by estimated cardinality, mask as the deterministic tie-break.
      std::vector<std::pair<double, uint32_t>> ranked;
      ranked.reserve(cands.size());
      for (const auto& [cand_mask, pairs] : cands) {
        ranked.emplace_back(subset_cardinality(cand_mask), cand_mask);
      }
      std::sort(ranked.begin(), ranked.end());
      std::vector<uint32_t> keep;
      for (const auto& [card, cand_mask] : ranked) {
        if (static_cast<int>(keep.size()) >= k) break;
        keep.push_back(cand_mask);
      }
      uint32_t spine = chain[static_cast<size_t>(s)];
      if (cands.count(spine) > 0 &&
          std::find(keep.begin(), keep.end(), spine) == keep.end()) {
        keep.push_back(spine);
      }
      for (uint32_t kept : keep) {
        GroupId gid =
            NewGroup(subset_output(kept), subset_cardinality(kept), 0);
        mutable_group(gid).row_width = estimator_->RowWidth(group(gid).output);
        subset_group[kept] = gid;
        for (BeamPair& p : cands[kept]) {
          GroupId ga = subset_group.at(p.a);
          GroupId gb = subset_group.at(p.b);
          AddExpr(std::make_shared<LogicalJoin>(LogicalJoinType::kInner,
                                                p.conds, nullptr, nullptr),
                  {ga, gb}, gid);
          AddExpr(std::make_shared<LogicalJoin>(LogicalJoinType::kInner,
                                                std::move(p.conds), nullptr,
                                                nullptr),
                  {gb, ga}, gid);
        }
        surv[static_cast<size_t>(s)].push_back(kept);
      }
      if (surv[static_cast<size_t>(s)].empty()) beam_failed = true;
    }
    auto it = subset_group.find(full);
    if (!beam_failed && it != subset_group.end()) {
      beam_used_ = true;
      return it->second;
    }
    // A conjunct spanning 3+ leaves can starve the spine; the left-deep
    // chain below still handles the cluster. Groups a partial beam already
    // committed remain as unreachable alternatives.
  }

  // Single seeded left-deep chain (beam disabled or infeasible).
  std::vector<int> order = compute_seed_order();
  uint32_t mask = 1u << order[0];
  GroupId acc = leaves[static_cast<size_t>(order[0])].gid;
  for (size_t i = 1; i < order.size(); ++i) {
    int leaf_idx = order[i];
    uint32_t new_mask = mask | (1u << leaf_idx);
    std::vector<ScalarExprPtr> conds =
        split_conditions(mask, 1u << leaf_idx);
    GroupId gid = NewGroup(subset_output(new_mask),
                           subset_cardinality(new_mask), 0);
    mutable_group(gid).row_width = estimator_->RowWidth(group(gid).output);
    LogicalJoinType jt =
        conds.empty() ? LogicalJoinType::kCross : LogicalJoinType::kInner;
    GroupId leaf_gid = leaves[static_cast<size_t>(leaf_idx)].gid;
    AddExpr(std::make_shared<LogicalJoin>(jt, conds, nullptr, nullptr),
            {acc, leaf_gid}, gid);
    AddExpr(std::make_shared<LogicalJoin>(jt, conds, nullptr, nullptr),
            {leaf_gid, acc}, gid);
    acc = gid;
    mask = new_mask;
  }
  return acc;
}

void Memo::ExploreSemiJoinAlternatives() {
  size_t group_count = groups_.size();
  for (size_t gi = 0; gi < group_count; ++gi) {
    size_t expr_count = groups_[gi].exprs.size();
    for (size_t ei = 0; ei < expr_count; ++ei) {
      // Copy what we need: AddExpr below may reallocate groups_.
      GroupExpr expr = groups_[gi].exprs[ei];
      if (expr.op->kind() != LogicalOpKind::kJoin) continue;
      const auto& j = static_cast<const LogicalJoin&>(*expr.op);
      if (j.join_type() != LogicalJoinType::kSemi) continue;

      GroupId left_gid = expr.children[0];
      GroupId right_gid = expr.children[1];
      std::set<ColumnId> right_ids;
      for (const auto& b : group(right_gid).output) right_ids.insert(b.id);

      // Every condition must bind right columns only through equalities
      // whose right side is a bare column; collect those columns.
      std::vector<ColumnId> bcols;
      bool ok = !j.conditions().empty();
      for (const auto& cond : j.conditions()) {
        std::set<ColumnId> used;
        CollectColumns(cond, &used);
        bool touches_right = false;
        for (ColumnId id : used) {
          if (right_ids.count(id) > 0) touches_right = true;
        }
        if (!touches_right) continue;
        ColumnId a, b;
        if (!IsColumnEquality(cond, &a, &b)) {
          ok = false;
          break;
        }
        ColumnId rcol = right_ids.count(a) > 0 ? a : b;
        ColumnId lcol = rcol == a ? b : a;
        if (right_ids.count(lcol) > 0) {
          ok = false;  // both sides from the right input
          break;
        }
        if (std::find(bcols.begin(), bcols.end(), rcol) == bcols.end()) {
          bcols.push_back(rcol);
        }
      }
      if (!ok || bcols.empty()) continue;

      // Distinct over the right side's join columns...
      auto agg = std::make_shared<LogicalAggregate>(
          bcols, std::vector<AggregateItem>{}, nullptr);
      GroupId dist_gid = AddExpr(std::move(agg), {right_gid});
      // ...joined inner (both orders)...
      auto join1 = std::make_shared<LogicalJoin>(
          LogicalJoinType::kInner, j.conditions(), nullptr, nullptr);
      GroupId join_gid = AddExpr(std::move(join1), {left_gid, dist_gid});
      auto join2 = std::make_shared<LogicalJoin>(
          LogicalJoinType::kInner, j.conditions(), nullptr, nullptr);
      AddExpr(std::move(join2), {dist_gid, left_gid}, join_gid);
      // ...then projected back to the semi join's output columns.
      std::vector<ProjectItem> items;
      for (const auto& b : groups_[gi].output) {
        items.push_back(ProjectItem{MakeColumn(b), b});
      }
      auto proj = std::make_shared<LogicalProject>(std::move(items), nullptr);
      AddExpr(std::move(proj), {join_gid}, static_cast<GroupId>(gi));
    }
  }
}

std::string Memo::ToString() const {
  std::string out;
  for (const auto& g : groups_) {
    out += StringFormat("Group %d: rows=%.1f width=%.1f cols=[", g.id,
                        g.cardinality, g.row_width);
    for (size_t i = 0; i < g.output.size(); ++i) {
      if (i > 0) out += ",";
      out += "#" + std::to_string(g.output[i].id);
    }
    out += "]\n";
    for (size_t i = 0; i < g.exprs.size(); ++i) {
      const GroupExpr& e = g.exprs[i];
      out += StringFormat("  %d.%zu: %s", g.id, i + 1, e.op->ToString().c_str());
      if (!e.children.empty()) {
        out += " (";
        for (size_t k = 0; k < e.children.size(); ++k) {
          if (k > 0) out += ", ";
          out += std::to_string(e.children[k]);
        }
        out += ")";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace pdw
