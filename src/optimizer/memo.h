#ifndef PDW_OPTIMIZER_MEMO_H_
#define PDW_OPTIMIZER_MEMO_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"
#include "common/result.h"
#include "optimizer/cardinality.h"

namespace pdw {

using GroupId = int32_t;
inline constexpr GroupId kInvalidGroupId = -1;

/// A group expression: an operator payload whose children are groups, not
/// operators. Together with Group this is the paper's (and Cascades' [5,6])
/// MEMO representation — "a groupExpression is an operator having other
/// groups (rather than other operators) as children".
struct GroupExpr {
  LogicalOpPtr op;  ///< Payload; op->children() is ignored inside the memo.
  std::vector<GroupId> children;
};

/// A group: the set of all equivalent operator trees producing the same
/// output, with shared logical properties (output columns, cardinality).
struct Group {
  GroupId id = kInvalidGroupId;
  std::vector<GroupExpr> exprs;
  std::vector<ColumnBinding> output;
  double cardinality = 0;
  double row_width = 0;

  // Serial-optimizer winner (best serial implementation), used both to
  // extract the best serial plan and by the parallelize-the-serial-plan
  // baseline. -1 cost means not yet computed.
  double winner_cost = -1;
  int winner_expr = -1;
};

/// Exploration controls. `expr_budget` plays the role of the SQL Server
/// optimizer timeout of §3.1: when the search space would exceed it, the
/// memo degrades gracefully — first to a budget-bounded beam search over
/// the DP levels (`beam_width` best subsets per level), and only with the
/// beam disabled to a single seeded left-deep join order, so the seed
/// determines the space considered — which is why PDW seeds with
/// distribution-aware collocated orders.
struct MemoOptions {
  int max_dp_relations = 9;
  int expr_budget = 60000;
  bool seed_distribution_aware = true;
  /// Beam width of the degraded enumeration (top-K cheapest connected
  /// subsets kept per DP level); 0 = disable the beam (legacy left-deep
  /// cliff).
  int beam_width = 64;
};

/// The optimizer search space: a DAG of groups. Construction inserts the
/// normalized logical tree with full join-order enumeration inside each
/// inner-join cluster (dynamic programming over connected sub-sets, with
/// commuted variants — "all equivalent join orders are generated"), plus
/// non-join alternatives such as semi-join -> join + group-by.
class Memo {
 public:
  Memo(const CardinalityEstimator* estimator, MemoOptions options)
      : estimator_(estimator), options_(options) {}

  /// Inserts a logical tree; returns the root group. Also runs the
  /// non-join transformation rules.
  Result<GroupId> InsertTree(const LogicalOpPtr& tree);

  GroupId root() const { return root_; }
  /// Marks the root group (XML importer use).
  void SetRoot(GroupId root) { root_ = root; }
  int num_groups() const { return static_cast<int>(groups_.size()); }
  size_t num_exprs() const { return num_exprs_; }
  const Group& group(GroupId id) const { return groups_[static_cast<size_t>(id)]; }
  Group& mutable_group(GroupId id) { return groups_[static_cast<size_t>(id)]; }

  /// True if join enumeration was degraded for some cluster: the budget
  /// was hit or the cluster exceeded max_dp_relations (the "timeout" path).
  bool budget_exhausted() const { return budget_exhausted_; }

  /// True if the degraded enumeration ran as a beam search (rather than
  /// the single seeded left-deep order).
  bool beam_used() const { return beam_used_; }

  const CardinalityEstimator& estimator() const { return *estimator_; }

  /// Inserts a raw group expression (used by the XML importer and by the
  /// PDW pre-processing rules). When `target_group` is given the expression
  /// joins that group; otherwise a group is found by dedup or created with
  /// the given logical properties.
  GroupId AddExpr(LogicalOpPtr payload, std::vector<GroupId> children,
                  GroupId target_group = kInvalidGroupId);

  /// Creates an empty group with explicit properties (XML importer).
  GroupId NewGroup(std::vector<ColumnBinding> output, double cardinality,
                   double row_width);

  /// Multi-line dump of all groups for debugging and the Fig. 3 bench.
  std::string ToString() const;

 private:
  struct ExprKey {
    size_t payload_hash;
    std::vector<GroupId> children;
  };

  GroupId InsertTreeInternal(const LogicalOpPtr& op);
  GroupId InsertJoinCluster(const LogicalOpPtr& top);
  void ComputeGroupProperties(Group* g, const GroupExpr& e);
  void ExploreSemiJoinAlternatives();

  const CardinalityEstimator* estimator_;
  MemoOptions options_;
  std::vector<Group> groups_;
  GroupId root_ = kInvalidGroupId;
  size_t num_exprs_ = 0;
  bool budget_exhausted_ = false;
  bool beam_used_ = false;
  // Dedup: payload+children fingerprint -> (group, expr index).
  std::unordered_multimap<size_t, std::pair<GroupId, int>> expr_index_;
};

}  // namespace pdw

#endif  // PDW_OPTIMIZER_MEMO_H_
