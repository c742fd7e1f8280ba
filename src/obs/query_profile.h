#ifndef PDW_OBS_QUERY_PROFILE_H_
#define PDW_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pdw::obs {

/// Per-operator actuals from one plan execution (pre-order over the plan
/// tree; seconds are inclusive of children, PostgreSQL-EXPLAIN-ANALYZE
/// style). For distributed steps the values are summed over the nodes that
/// ran the step's SQL.
struct OperatorProfile {
  int depth = 0;
  std::string name;
  double estimated_rows = 0;  ///< Per-node compile-time estimate (summed).
  double actual_rows = 0;     ///< Rows the operator emitted (summed).
  double seconds = 0;         ///< Wall time, inclusive of children (summed).
  int nodes = 0;              ///< How many node executions were aggregated.
  /// Batch-engine counters (zero under the row engine, which has neither
  /// batches nor morsels): column batches the operator emitted, and morsel
  /// tasks its pipeline was split into on the node-local worker pool.
  double batches = 0;
  double morsels = 0;
  /// Output/input row ratio of filtering operators (filters, join probes);
  /// negative = not applicable for this operator.
  double selectivity = -1;
};

/// One metered DMS component of a step (bytes processed, wall seconds).
struct ComponentProfile {
  double bytes = 0;
  double seconds = 0;
};

/// Estimated-vs-actual profile of one DSQL step.
struct StepProfile {
  int index = 0;
  std::string kind;       ///< "DMS" or "RETURN".
  std::string move_kind;  ///< DMS operation name (DMS steps only).
  std::string dest_table;
  std::string sql;

  double estimated_rows = 0;   ///< PDW optimizer's global estimate.
  double actual_rows = 0;      ///< Rows moved (DMS) / returned (RETURN).
  double estimated_cost = 0;   ///< Modeled DMS cost of the move.
  double measured_seconds = 0; ///< Wall time of the successful attempt.
  /// Transient-failure retries this step needed before succeeding (0 on
  /// the common path); retried attempts' partial temp tables were dropped.
  int retries = 0;

  double rows_moved = 0;
  ComponentProfile reader, network, writer, bulkcopy;

  /// Pre-aggregation telemetry (PR 9): set when the step's source SQL is a
  /// partial aggregate, so the move ships pre-aggregated rows. rows_out is
  /// rows_moved; the reduction factor is rows_in / rows_out.
  bool preagg = false;
  double preagg_rows_in = 0;         ///< Compile-time input-row estimate.
  double preagg_rows_in_actual = 0;  ///< Measured (when actuals collected).

  /// (node, seconds) wall time of the step's SQL on each node that ran it
  /// (control node = highest id). Under pooled execution these overlap, so
  /// their sum exceeds measured_seconds; the spread shows skew.
  std::vector<std::pair<int, double>> node_seconds;

  std::vector<OperatorProfile> operators;

  /// |estimated / actual| ratio, >= 1, using max(1, x) floors; the
  /// cardinality-feedback signal.
  double MisestimateFactor() const;
};

/// One timed compilation phase (Fig. 2 component).
struct PhaseProfile {
  std::string name;
  double seconds = 0;
};

/// Search statistics of the PDW bottom-up enumeration.
struct OptimizerProfile {
  double groups = 0;
  double options_considered = 0;
  double options_kept = 0;
  double options_pruned = 0;
  double enforcers_inserted = 0;
  /// Serial-memo search-space size (groups / group expressions).
  double memo_groups = 0;
  double memo_exprs = 0;
  /// Join enumeration was degraded (budget hit or too many relations);
  /// ToText then emits a WARNING line so the cliff is never silent.
  bool budget_exhausted = false;
  /// The degradation ran as a beam search rather than a single seeded
  /// left-deep order.
  bool beam_used = false;
};

/// The machine-readable result of EXPLAIN ANALYZE: every DSQL step with
/// modeled cost vs measured seconds, estimated vs actual rows, and
/// per-component DMS bytes, plus compile-phase timings and optimizer search
/// counters. Pure data — benches serialize it to JSON, the appliance
/// renders it as text.
struct QueryProfile {
  /// Appliance-wide monotonically unique request id (0 = not assigned);
  /// joins this profile with sys.dm_pdw_exec_requests rows and trace spans.
  uint64_t query_id = 0;
  std::string sql;
  std::vector<PhaseProfile> compile_phases;
  OptimizerProfile optimizer;
  std::vector<StepProfile> steps;
  double modeled_cost = 0;      ///< Optimizer objective for the whole plan.
  double measured_seconds = 0;  ///< Wall time of DSQL execution.
  double compile_seconds = 0;   ///< Sum of compile phases.
  /// True when the DSQL plan came from the plan cache (compile_phases then
  /// holds a single plan_cache_lookup entry instead of pipeline phases).
  bool cache_hit = false;

  /// Estimates diverging from actuals by at least `threshold` x are flagged
  /// in ToText with a [MISESTIMATE ..x] marker.
  std::string ToText(double misestimate_threshold = 10.0) const;
  std::string ToJson() const;
};

}  // namespace pdw::obs

#endif  // PDW_OBS_QUERY_PROFILE_H_
