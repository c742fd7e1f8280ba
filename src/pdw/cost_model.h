#ifndef PDW_PDW_COST_MODEL_H_
#define PDW_PDW_COST_MODEL_H_

#include <string>

#include "plan/distribution.h"

namespace pdw {

/// Per-byte cost constants (the λ of §3.3.3), one per DMS operator
/// component. The paper's "cost calibration" fits these against targeted
/// performance tests; `CalibrateCostModel` in src/dms does the same
/// against the DMS simulator. Units: seconds per byte (scaled arbitrarily;
/// only ratios matter for plan choice).
///
/// Defaults are fitted to the streaming columnar wire format
/// (CalibrateCostModel, see bench_fig5_dms_cost): pack/route is
/// column-at-a-time plane work, the hash overhead is ~1.2x of a direct
/// read (vectorized routing), and the receive side (unpack + row
/// materialization, then temp-table bulk copy) dominates — matching the
/// paper's observation that materializing to temp tables is the expensive
/// end of a move.
struct DmsCostParameters {
  /// Reader: pull tuples from the local SQL query and pack buffers. The
  /// paper found hashing moves (Shuffle, Trim) need their own constant.
  double lambda_reader_direct = 2.5e-9;
  double lambda_reader_hash = 3.0e-9;
  /// Send buffers over the network.
  double lambda_network = 8.0e-10;
  /// Unpack buffers and prepare them for insertion.
  double lambda_writer = 5.0e-9;
  /// Bulk-copy insert into the SQL Server temp table — typically the most
  /// expensive component ("materializing data to temp tables" dominates).
  double lambda_bulkcopy = 1.0e-8;
  /// CPU charge per input byte of a pushed-down partial aggregate (the
  /// pre-aggregation enforcer of PR 9). The DMS-only objective is blind to
  /// local compute, but a partial aggregate that barely shrinks its input
  /// (near-unique grouping keys) must lose to the plain plan on cost —
  /// this term is what makes the optimizer *decline* pushdown when the
  /// distinct-group estimate approaches the input cardinality. Fitted
  /// below the movement λs: scanning+hashing a byte locally is cheaper
  /// than shipping it.
  double lambda_preagg = 1.5e-9;
};

/// Response-time cost model for the seven DMS operations (§3.3.2-3.3.3),
/// under the paper's assumptions: serial DSQL steps, no pipelining,
/// isolation, homogeneous nodes, uniform data distribution. With uniformity
/// only one node per side needs costing:
///   C_source = max(C_reader, C_network)
///   C_target = max(C_writer, C_blkcpy)
///   C_DMS    = max(C_source, C_target)
/// with each component C_X = B_X * λ_X, B_X = Y*w/N for distributed
/// streams and Y*w for replicated/single-node streams.
class DmsCostModel {
 public:
  DmsCostModel(const DmsCostParameters& params, int num_nodes)
      : params_(params), nodes_(num_nodes < 1 ? 1 : num_nodes) {}

  /// Per-component byte counts and costs for one DMS operation moving a
  /// stream of `rows` global rows of `width` bytes.
  struct Breakdown {
    double bytes_reader = 0;
    double bytes_network = 0;
    double bytes_writer = 0;
    double bytes_bulkcopy = 0;
    double c_reader = 0;
    double c_network = 0;
    double c_writer = 0;
    double c_bulkcopy = 0;
    double c_source = 0;
    double c_target = 0;
    double total = 0;

    std::string ToString() const;
  };

  Breakdown CostBreakdown(DmsOpKind kind, double rows, double width) const;

  /// Total modeled response time of the operation.
  double Cost(DmsOpKind kind, double rows, double width) const {
    return CostBreakdown(kind, rows, width).total;
  }

  int num_nodes() const { return nodes_; }
  const DmsCostParameters& params() const { return params_; }

 private:
  DmsCostParameters params_;
  int nodes_;
};

}  // namespace pdw

#endif  // PDW_PDW_COST_MODEL_H_
