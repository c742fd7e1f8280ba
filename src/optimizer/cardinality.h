#ifndef PDW_OPTIMIZER_CARDINALITY_H_
#define PDW_OPTIMIZER_CARDINALITY_H_

#include <vector>

#include "algebra/scalar_expr.h"
#include "optimizer/stats_context.h"

namespace pdw {

/// Cardinality estimation over bound predicates, using histogram-backed
/// base-table statistics reachable through the StatsContext (paper Fig. 2,
/// step 2c: "estimation of the size of intermediate results ... based on
/// the size of base tables and statistics on the column values").
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const StatsContext* stats) : stats_(stats) {}

  /// Product of conjunct selectivities (independence assumption), with one
  /// exception: a column equality counts only when no earlier conjunct of
  /// the same call has already equated its two columns. So an equivalence
  /// class spanning k columns contributes k-1 equalities, in conjunct
  /// order, and a transitivity-closure conjunct (a = c beside a = b and
  /// b = c) is not multiplied in a second time. Every filter and join
  /// estimate of the memo goes through here.
  double Selectivity(const std::vector<ScalarExprPtr>& conjuncts) const;

  /// Output cardinality of GROUP BY `group_cols` over `input_rows` rows:
  /// min(input, product of NDVs).
  double GroupCardinality(const std::vector<ColumnId>& group_cols,
                          double input_rows) const;

  /// Average output row width in bytes for a set of columns.
  double RowWidth(const std::vector<ColumnBinding>& cols) const;

  const StatsContext& stats() const { return *stats_; }

 private:
  /// Selectivity in [0,1] of one predicate conjunct.
  double ConjunctSelectivity(const ScalarExprPtr& conjunct) const;

  /// Selectivity of an equi-join predicate a = b: 1/max(ndv(a), ndv(b)).
  double JoinEqualitySelectivity(ColumnId a, ColumnId b) const;

  const StatsContext* stats_;
};

}  // namespace pdw

#endif  // PDW_OPTIMIZER_CARDINALITY_H_
