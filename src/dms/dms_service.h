#ifndef PDW_DMS_DMS_SERVICE_H_
#define PDW_DMS_DMS_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "common/thread_pool.h"
#include "dms/wire_format.h"
#include "pdw/cost_model.h"
#include "plan/distribution.h"

namespace pdw {

/// Observed bytes and wall time of one DMS component across a data
/// movement operation. The λ calibration divides seconds by bytes.
struct DmsComponentMetrics {
  double bytes = 0;
  double seconds = 0;
};

/// Metrics of a full DMS operation (per-component, summed over nodes).
struct DmsRunMetrics {
  DmsComponentMetrics reader;
  DmsComponentMetrics network;
  DmsComponentMetrics writer;
  DmsComponentMetrics bulkcopy;
  double rows_moved = 0;
  double wall_seconds = 0;

  /// Folds another run's per-component meters (and wall time) into this.
  void Accumulate(const DmsRunMetrics& other);

  std::string ToString() const;
};

/// Default rows per columnar wire batch (see DmsExecOptions::batch_size).
/// Sized so that even an 8-way shuffle split leaves ~thousand-row
/// messages — per-message framing, hand-off, and assembly overhead grows
/// with fan-out.
inline constexpr int kDmsWireBatchRows = 8192;

/// Knobs of one DMS execution.
struct DmsExecOptions {
  /// Rows per wire batch; 0 = kDmsWireBatchRows. Movement cost is
  /// framing + memcpy, so bigger slices amortize per-message headers,
  /// hand-offs, and assembly bookkeeping.
  int batch_size = 0;
  /// Declared column types of the moved stream (the DMS step's destination
  /// temp-table schema). Empty = infer per source from the produced rows.
  std::vector<TypeId> types;
  /// Optional live progress feed: invoked as row chunks land on their
  /// destination with (rows, wire bytes) of that chunk, from concurrent
  /// senders mid-flight. Must be thread-safe and cheap; feeds
  /// sys.dm_pdw_exec_requests' rows/bytes-moved-so-far columns.
  std::function<void(double rows_delta, double bytes_delta)> progress;
  /// Cooperative cancellation token (owned by the session that issued the
  /// query). Checked at every hand-off of a packed batch to its
  /// destination; when it flips, the movement aborts with
  /// StatusCode::kCancelled and the other senders stop at their next batch.
  const std::atomic<bool>* cancel = nullptr;
  /// Cap on how many senders (one pool task per source) this movement may
  /// run concurrently on the shared pool. 0 = no cap beyond pool size. The
  /// calling thread still participates, so 1 is the serial schedule.
  int max_workers = 0;
};

/// Produces one source node's rows for a pipelined movement — typically by
/// running the DSQL step's SQL on that node. Called exactly once, on that
/// source's task, so production overlaps the delivery of nodes that
/// finished earlier.
using DmsProducer = std::function<Result<RowVector>()>;

/// The Data Movement Service simulator (Fig. 5). It reproduces the DMS
/// operator's source/target structure with real work per component:
///  * reader  — serialize rows into byte buffers (hashing for Shuffle/Trim);
///  * network — hand buffers from one node to another;
///  * writer  — deserialize buffers back into rows;
///  * bulkcopy— insert rows into the destination temp-table storage.
/// Per-component byte counts and timings are metered so the cost model's
/// λ constants can be calibrated against this substrate exactly as the
/// paper calibrates against hardware.
///
/// Movement streams columnar wire batches: each source's sender packs a
/// batch and delivers it into its destination itself, under that
/// destination's mutex. Senders run concurrently, one pool task per
/// source, so early sources' batches land while later ones still produce.
/// No task ever blocks on another's progress.
///
/// Thread safety: DmsService holds no mutable state, so concurrent
/// Execute calls (one per in-flight query) are safe as long as each call
/// gets its own `metrics` accumulator. Within one call, passing a
/// ThreadPool fans the per-node work out across nodes — the instances
/// really do run simultaneously, as in Fig. 5.
class DmsService {
 public:
  /// `num_compute_nodes` compute nodes; node index `num_compute_nodes`
  /// denotes the control node.
  explicit DmsService(int num_compute_nodes)
      : nodes_(num_compute_nodes) {}

  int num_compute_nodes() const { return nodes_; }
  int control_node() const { return nodes_; }

  /// Executes a data movement of materialized inputs: `source_rows[i]`
  /// holds the rows produced by the step's SQL on node i (size
  /// num_compute_nodes + 1; the last slot is the control node). Each
  /// non-empty slot becomes a trivial producer of ExecutePipelined.
  /// Returns the rows landing on each node (same indexing).
  /// `hash_ordinals` drive Shuffle/Trim routing. A non-null `pool` runs the
  /// per-node work in parallel across nodes (component seconds then sum
  /// per-node durations, as in the serial loop); null keeps the
  /// deterministic serial schedule.
  Result<std::vector<RowVector>> Execute(DmsOpKind kind,
                                         std::vector<RowVector> source_rows,
                                         const std::vector<int>& hash_ordinals,
                                         DmsRunMetrics* metrics = nullptr,
                                         ThreadPool* pool = nullptr,
                                         const DmsExecOptions& options = {});

  /// The streaming columnar pipeline. `producers[i]` (size
  /// num_compute_nodes + 1, null entries = no source on that node) runs on
  /// its source's task and feeds its rows straight into the reader stage:
  /// rows are sliced into wire batches, hash-routed column-at-a-time
  /// (Shuffle/Trim) and packed with PackRowsColumnar; the same task then
  /// unpacks and bulk-copies each batch into its destination under that
  /// destination's mutex. Per-slot result rows are assembled in
  /// deterministic (source, sequence) order. On a failure the other
  /// senders stop at their next batch, and the first error in source
  /// order is returned.
  Result<std::vector<RowVector>> ExecutePipelined(
      DmsOpKind kind, std::vector<DmsProducer> producers,
      const std::vector<int>& hash_ordinals, DmsRunMetrics* metrics = nullptr,
      ThreadPool* pool = nullptr, const DmsExecOptions& options = {});

  /// Hash routing used for both table loads and shuffles, so collocated
  /// joins really are collocated. HashPartitionRows is the vectorized
  /// equivalent; both chain per-column value hashes through MixColumnHash.
  int TargetNode(const Row& row, const std::vector<int>& hash_ordinals) const {
    return static_cast<int>(HashRowColumns(row, hash_ordinals) %
                            static_cast<size_t>(nodes_));
  }

 private:
  int nodes_;
};

/// Runs targeted micro-measurements against the simulator's component
/// implementations and fits the per-byte λ constants (§3.3.3 "cost
/// calibration"). `rows_per_probe` controls measurement size. Each probe
/// does the same component work as ExecutePipelined, so costing matches
/// what execution actually does.
DmsCostParameters CalibrateCostModel(int rows_per_probe = 20000);

}  // namespace pdw

#endif  // PDW_DMS_DMS_SERVICE_H_
