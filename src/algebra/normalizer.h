#ifndef PDW_ALGEBRA_NORMALIZER_H_
#define PDW_ALGEBRA_NORMALIZER_H_

#include "algebra/logical_op.h"
#include "common/result.h"

namespace pdw {

/// Simplifies a bound logical tree into the normalized form the optimizer
/// expects (paper Fig. 2, step 2a). Every pass always runs, in this order:
///   1. constant folding (and FALSE-filter short-circuit);
///   2. predicate pushdown — merges filters, converts cross joins to inner
///      joins, simplifies null-rejected left outer joins to inner joins,
///      pushes single-side join conditions into the inputs;
///   3. join transitivity closure (§4) — derives a=c from a=b AND b=c and
///      propagates column=constant through equivalence classes, then
///      pushes down again when it derived anything;
///   4. contradiction detection (§5) — empty-range predicates collapse
///      subtrees to a zero-row relation, which then propagates through
///      joins;
///   5. redundant join elimination (§5) — drops an unreferenced,
///      unfiltered primary-key side of a FK join;
///   6. column pruning — trims unused Get bindings and Project items (this
///      is what keeps DMS row widths minimal).
Result<LogicalOpPtr> Normalize(LogicalOpPtr root);

}  // namespace pdw

#endif  // PDW_ALGEBRA_NORMALIZER_H_
