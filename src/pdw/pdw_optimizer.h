#ifndef PDW_PDW_PDW_OPTIMIZER_H_
#define PDW_PDW_PDW_OPTIMIZER_H_

#include <map>
#include <memory>
#include <vector>

#include "optimizer/memo.h"
#include "pdw/cost_model.h"
#include "pdw/interesting_props.h"
#include "plan/plan_node.h"

namespace pdw {

/// How a distributed aggregation or limit option is realized at plan-build
/// time (the Q20 LocalGB/GlobalGB pattern).
enum class DistributedStrategy {
  kPlain,              ///< Operator applied as-is on the chosen inputs.
  kLocalGlobalShuffle, ///< Local partial agg, shuffle on a group-by column,
                       ///< global agg.
  kLocalGlobalGather,  ///< Local partial agg, gather to control, global agg.
  kLocalLimitGather,   ///< Local top-N, gather, re-sort + global top-N.
  kPreaggJoin,         ///< Partial agg pushed below a join of the input
                       ///< group; global agg above the join (PR 9).
};

/// Everything BuildPlan needs to reconstruct one pushed-down partial
/// aggregation alternative: the chosen join expression of the aggregate's
/// input group, which side receives the partial aggregate, the partial
/// grouping key {group-by ∩ side} ∪ {side's equi-join keys}, and the
/// optional DMS moves below (partial stream) and above (join output) it.
/// Held by shared_ptr on PdwOption so options stay cheap to copy.
struct PreaggRecipe {
  int join_expr = 0;    ///< Expr index within the aggregate's input group.
  int side = 0;         ///< 0 = left join input pushed, 1 = right.
  int side_option = 0;  ///< Option index of the pushed side's group.
  int other_option = 0; ///< Option index of the other side's group.
  std::vector<ColumnId> partial_keys;  ///< K, actual side-output columns.
  double partial_rows = 0;   ///< Appliance-wide partial output rows.
  double partial_width = 0;  ///< Row width of the partial stream.
  DistributionProperty partial_dist;  ///< Partial output, before any move.
  bool has_partial_move = false;      ///< Move partials before the join.
  DmsOpKind partial_move_kind = DmsOpKind::kShuffle;
  ColumnId partial_shuffle_col = kInvalidColumnId;
  double partial_move_cost = 0;
  DistributionProperty partial_moved_dist;  ///< Partial side at the join.
  double join_rows = 0;               ///< Join output estimate (reduced).
  double join_width = 0;
  DistributionProperty join_dist;     ///< Join output property.
  bool has_global_move = false;       ///< Move join output before global agg.
  DmsOpKind global_move_kind = DmsOpKind::kShuffle;
  ColumnId global_shuffle_col = kInvalidColumnId;
  double global_move_cost = 0;
  DistributionProperty global_dist;   ///< Property the global agg runs under.
};

/// One entry in a group's option table: a way of producing the group's
/// output with a concrete distribution property and a cumulative cost.
struct PdwOption {
  DistributionProperty prop;         ///< Canonicalized distribution.
  double cost = 0;                   ///< Cumulative modeled cost.
  /// Cumulative modeled local work (bytes the relational operators read
  /// and write, per node). It never outweighs `cost`: it only ranks
  /// options whose `cost` is exactly equal (CheaperOption).
  double local = 0;
  bool is_enforcer = false;          ///< Data-movement option (step 07).
  DmsOpKind move_kind = DmsOpKind::kShuffle;
  int source_option = -1;            ///< Enforcer input (index in same group).
  double move_cost = 0;              ///< Modeled cost of the move itself.
  int expr_index = -1;               ///< Group expression (non-enforcer).
  std::vector<int> child_options;    ///< Chosen option per child group.
  DistributedStrategy strategy = DistributedStrategy::kPlain;
  ColumnId shuffle_column = kInvalidColumnId;  ///< Actual hash column.
  double local_rows = 0;             ///< Partial-agg output rows (two-phase).
  /// Pushed-down partial aggregation recipe (kPreaggJoin only).
  std::shared_ptr<const PreaggRecipe> preagg;
};

/// The one ranking of options, used by pruning, the pushdown frontier and
/// the root pick: lower `cost`; on an exactly equal `cost`, lower `local`.
/// Plans that move the same bytes can still differ by the join order
/// inside a step, which the compute node keeps as compiled (DESIGN §5).
inline bool CheaperOption(const PdwOption& a, const PdwOption& b) {
  return a.cost < b.cost || (a.cost == b.cost && a.local < b.local);
}

/// Options and statistics of the PDW optimizer (Fig. 4).
struct PdwOptimizerOptions {
  DmsCostParameters cost_params;
  /// User hint (§3.1 query surface extension): FORCE_BROADCAST removes
  /// shuffle enforcers, FORCE_SHUFFLE removes broadcast enforcers.
  sql::DistributionHint hint = sql::DistributionHint::kNone;
  /// Step 06.ii pruning: keep only the best option overall and per
  /// interesting property. Disabling it is the FIG4 ablation.
  bool prune = true;
  /// Cap on options per group when pruning is disabled (safety valve).
  size_t max_options_per_group = 4096;
  /// Consider TRIM moves for replicated->distributed conversions.
  bool enable_trim_move = true;
  /// Extended (ablation) model: add relational_lambda x local work to the
  /// paper's DMS-only objective. Off, local work only breaks exact cost
  /// ties.
  bool relational_costs = false;
  /// Per-byte weight of local work in the extended model.
  double relational_lambda = 0.4e-8;
  /// Partial-aggregate pushdown below joins (pre-aggregation enforcers).
  bool enable_preagg = true;
};

/// Result of PDW optimization: the parallel plan (with Move nodes) plus
/// search statistics used by the benches.
struct PdwPlanResult {
  PlanNodePtr plan;
  double cost = 0;
  double local = 0;  ///< The chosen root option's modeled local work.
  size_t options_considered = 0;
  size_t options_kept = 0;
  size_t options_pruned = 0;      ///< considered - kept (step 06.ii effect).
  size_t enforcers_inserted = 0;  ///< Data-movement options kept (step 07).
  size_t groups_optimized = 0;
  /// Pre-aggregation pushdown search statistics (PR 9).
  size_t preagg_considered = 0;  ///< Pushdown options generated.
  size_t preagg_kept = 0;        ///< Pushdown options surviving pruning.
  bool preagg_chosen = false;    ///< Final plan contains a pushed partial agg.
};

/// The PDW parallel optimizer (paper §3, Fig. 4): bottom-up enumeration
/// over the imported memo, inserting data-movement enforcers, pruning per
/// interesting property, and extracting the cheapest plan that delivers
/// results to the control node.
class PdwOptimizer {
 public:
  PdwOptimizer(Memo* memo, const Topology& topology,
               PdwOptimizerOptions options = {});

  Result<PdwPlanResult> Optimize();

  /// Option table of a group (valid after Optimize); test/bench hook for
  /// the per-group bound of Fig. 4 step 06.ii.
  const std::vector<PdwOption>& group_options(GroupId gid) const {
    return options_.at(gid);
  }
  const InterestingProperties& interesting() const { return props_; }
  const DmsCostModel& cost_model() const { return cost_model_; }

 private:
  void OptimizeGroup(GroupId gid);
  void EnumerateExpr(GroupId gid, int expr_index);
  void EnumerateJoin(GroupId gid, int expr_index);
  void EnumerateAggregate(GroupId gid, int expr_index);
  /// Pushdown variants for one aggregate expr: for every join expression
  /// of the input group and every join side, a local partial aggregate on
  /// that side keyed on {group-by ∩ side} ∪ {side's equi-join keys}, with
  /// the global phase left above the join (PR 9).
  void EnumeratePreagg(GroupId gid, int expr_index);
  void EnumerateLimit(GroupId gid, int expr_index);
  void EnumerateUnionAll(GroupId gid, int expr_index);
  void EnforcerStep(GroupId gid);

  /// Indexes of the cheapest option per canonical distribution property
  /// (CheaperOption; first index wins full ties). With pruning on this is the
  /// whole table; with pruning off it collapses the ablation's full table
  /// so the pushdown sweep stays polynomial and picks the same winners.
  std::vector<int> FrontierOptions(GroupId gid) const;

  /// Inserts a candidate option, applying cost-based pruning per canonical
  /// property. Returns true if kept.
  bool Consider(GroupId gid, PdwOption option);

  /// Modeled local work of one operator instance: the bytes it reads from
  /// its children and writes, per node when `distributed`.
  double LocalWork(const Group& g, const GroupExpr& e, bool distributed) const;
  /// The extended model's charge for `work`: relational_lambda x work, or 0
  /// in the paper's DMS-only model.
  double RelationalCost(double work) const;

  /// Actual column of `group`'s output belonging to class `rep`.
  ColumnId MemberInOutput(GroupId gid, ColumnId rep) const;

  Result<PlanNodePtr> BuildPlan(GroupId gid, int option_index) const;

  Memo* memo_;
  Topology topology_;
  PdwOptimizerOptions opts_;
  DmsCostModel cost_model_;
  InterestingProperties props_;
  std::map<GroupId, std::vector<PdwOption>> options_;
  std::set<GroupId> done_;
  std::set<GroupId> in_progress_;
  size_t considered_ = 0;
  size_t enforcers_kept_ = 0;
  size_t preagg_considered_ = 0;
  size_t preagg_kept_ = 0;
};

}  // namespace pdw

#endif  // PDW_PDW_PDW_OPTIMIZER_H_
