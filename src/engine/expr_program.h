#ifndef PDW_ENGINE_EXPR_PROGRAM_H_
#define PDW_ENGINE_EXPR_PROGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "algebra/scalar_expr.h"
#include "common/result.h"
#include "common/row.h"
#include "engine/batch.h"

namespace pdw {

/// A scalar expression compiled once per operator at plan-bind time for
/// batch execution. Compilation resolves every column reference to its
/// input ordinal (the row interpreter re-resolves through a ColumnId map
/// per row per reference), so evaluation is a walk over typed column
/// vectors with no name or id lookups.
///
/// Three entry points:
///  - Eval: vector-at-a-time evaluation over the selected rows, returning
///    a dense result (one value per selection entry, in selection order).
///    Typed kernels cover arithmetic, comparisons, AND/OR, LIKE and IS
///    NULL; CASE/CAST/functions evaluate vector-wise with value-generic
///    inner loops that share scalar_eval's operator semantics.
///  - Filter: fused predicate evaluation that shrinks a selection vector
///    in place. Conjunctions split recursively, and comparisons against
///    literals or between columns run as tight compare-and-keep loops
///    without materializing a boolean vector.
///  - EvalRow: the per-row path (nested-loop joins), still ordinal-resolved.
///
/// Programs are immutable after Compile. Each operator execution compiles
/// its own, so node tasks running one shared plan share no program.
class ExprProgram {
 public:
  ExprProgram() = default;

  /// Compiles `expr` against the operator input `input` (ordinal i of the
  /// input batch holds input[i]). Fails on references to absent columns.
  static Result<ExprProgram> Compile(const ScalarExprPtr& expr,
                                     const std::vector<ColumnBinding>& input);

  bool valid() const { return root_ != nullptr; }
  TypeId output_type() const;

  /// Dense evaluation over `sel`: result[k] is the value for batch row
  /// sel[k]. A bare column reference returns the column itself, shared,
  /// when `sel` is every row in order, and gathers it otherwise. SQL
  /// semantics match EvalScalar exactly (three-valued logic, NULL
  /// propagation, div/mod-by-zero errors).
  Result<ColumnVector> Eval(const ColumnBatch& batch, const SelVector& sel) const;

  /// Removes the rows where this (predicate) program does not evaluate to
  /// TRUE; NULL and FALSE both reject, as in EvalPredicate.
  Status Filter(const ColumnBatch& batch, SelVector* sel) const;

  /// Row-at-a-time evaluation with the compiled ordinals.
  Result<Datum> EvalRow(const Row& row) const;

  struct Node;

 private:
  explicit ExprProgram(std::shared_ptr<const Node> root)
      : root_(std::move(root)) {}

  std::shared_ptr<const Node> root_;
};

}  // namespace pdw

#endif  // PDW_ENGINE_EXPR_PROGRAM_H_
