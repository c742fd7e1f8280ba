#ifndef PDW_PDW_TOP_DOWN_H_
#define PDW_PDW_TOP_DOWN_H_

#include <map>
#include <set>
#include <vector>

#include "optimizer/memo.h"
#include "pdw/cost_model.h"
#include "pdw/interesting_props.h"
#include "plan/plan_node.h"

namespace pdw {

/// Demand-driven ("top-down") variant of the PDW parallel optimizer. The
/// paper's §3.2 notes that while the shipped implementation enumerates
/// bottom-up, "a top-down enumeration technique is equally applicable to
/// the PDW QO design" — this class demonstrates that: it memoizes
/// BestCost(group, required distribution property) and only explores
/// (group, property) states actually demanded from the root, instead of
/// materializing every group's full option table.
///
/// Both optimizers share the cost model and property algebra, so they must
/// agree on the optimal plan cost (asserted by tests and compared by
/// bench_top_down); they differ in how much of the space they touch.
///
/// Cross-group demands follow the memo DAG strictly downward, while
/// enforcer moves connect properties *within* one group; the implementation
/// therefore computes a whole group's property table on first demand
/// (children first, then an intra-group move relaxation to fixpoint), which
/// avoids the cycle-cutting pitfalls of naive per-(group, property)
/// memoization.
class TopDownPdwOptimizer {
 public:
  struct Options {
    DmsCostParameters cost_params;
    bool enable_trim_move = true;
    /// Partial-aggregate pushdown below joins; same semantics as
    /// PdwOptimizerOptions::enable_preagg.
    bool enable_preagg = true;
  };

  struct Stats {
    size_t states_computed = 0;   ///< Distinct (group, property) demands.
    size_t states_requested = 0;  ///< Total demands incl. memo hits.
  };

  TopDownPdwOptimizer(Memo* memo, const Topology& topology, Options options);
  TopDownPdwOptimizer(Memo* memo, const Topology& topology)
      : TopDownPdwOptimizer(memo, topology, Options()) {}

  /// Cheapest cost of producing `gid` under any final property (the free
  /// Return). Populates the demand memo.
  Result<double> OptimalCost();

  /// Cheapest cost of `gid` under a specific canonical property;
  /// kInfiniteCost when unachievable.
  double BestCost(GroupId gid, const DistributionProperty& prop);

  const Stats& stats() const { return stats_; }
  const InterestingProperties& interesting() const { return props_; }

 private:
  using Key = std::pair<GroupId, DistributionProperty>;

  /// Computes the full candidate-property cost table of a group: direct
  /// costs per property, then move-edge relaxation to fixpoint.
  void ComputeGroup(GroupId gid);
  /// Cost of the one-hop move realizing `target` from `src` for this
  /// group's stream, or infinity when no DMS operation applies.
  double MoveEdge(GroupId gid, const DistributionProperty& src,
                  const DistributionProperty& target) const;
  /// Direct (non-enforcer) realizations of `prop` from the group's exprs.
  double DirectCost(GroupId gid, const DistributionProperty& prop);
  /// Cheapest pre-aggregation pushdown realization of aggregate expr `e`
  /// under `prop`: a partial aggregate below one join of the input group,
  /// global phase above (mirrors PdwOptimizer::EnumeratePreagg, PR 9).
  double PreaggCost(GroupId gid, const GroupExpr& e,
                    const DistributionProperty& prop);
  /// Candidate source properties for enforcers and "any" demands.
  std::vector<DistributionProperty> CandidateProps(GroupId gid);
  /// Cheapest distributed realization (used for "any distribution works").
  double BestAnyDistributed(GroupId gid);

  Memo* memo_;
  Options opts_;
  DmsCostModel cost_model_;
  InterestingProperties props_;
  std::map<Key, double> table_;
  std::set<GroupId> group_done_;
  Stats stats_;
};

}  // namespace pdw

#endif  // PDW_PDW_TOP_DOWN_H_
