#ifndef PDW_PDW_BASELINE_H_
#define PDW_PDW_BASELINE_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "optimizer/memo.h"
#include "pdw/cost_model.h"
#include "pdw/interesting_props.h"
#include "plan/plan_node.h"

namespace pdw {

/// The strawman the paper argues against (§2.5): take the best *serial*
/// plan verbatim — same join order, same operator tree — and make it a
/// valid distributed plan by inserting, at each operator, the locally
/// cheapest data movements. No global search over distributions, no
/// alternative join orders.
///
/// `serial_plan` is consumed (moves are spliced into it). Returns the
/// parallelized plan; its quality is compared against the PDW optimizer's
/// plan by bench_serial_vs_parallel and bench_tpch_suite.
Result<PlanNodePtr> ParallelizeSerialPlan(PlanNodePtr serial_plan,
                                          const Topology& topology,
                                          const ColumnEquivalence& equivalence,
                                          const DmsCostParameters& params = {});

/// The §2.5 comparison for one compiled query: the best serial plan of
/// `memo` and its naive parallelization. Built only on request (tests and
/// benches); the production compile never pays for it.
struct SerialBaseline {
  PlanNodePtr serial_plan;  ///< Best serial plan (single-node optimal).
  PlanNodePtr plan;         ///< `serial_plan`, parallelized.
  double cost = 0;          ///< Total DMS cost of `plan`.
};

/// Extracts the best serial plan from `memo` (a serial memo, or the PDW
/// side's imported copy) and parallelizes it under the column equivalence
/// the PDW optimizer derives from the same memo.
Result<SerialBaseline> BuildSerialBaseline(Memo* memo,
                                           const Topology& topology,
                                           const DmsCostParameters& params = {});

}  // namespace pdw

#endif  // PDW_PDW_BASELINE_H_
