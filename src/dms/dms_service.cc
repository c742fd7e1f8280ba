#include "dms/dms_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/fault.h"
#include "common/string_util.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Folds one run's deltas into the process-wide metrics registry.
void FoldRunIntoRegistry(const DmsRunMetrics& before, const DmsRunMetrics& m,
                         obs::TraceSpan* span) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Count("dms.executions");
  reg.Count("dms.rows_moved", m.rows_moved - before.rows_moved);
  reg.Count("dms.reader.bytes", m.reader.bytes - before.reader.bytes);
  reg.Count("dms.network.bytes", m.network.bytes - before.network.bytes);
  reg.Count("dms.writer.bytes", m.writer.bytes - before.writer.bytes);
  reg.Count("dms.bulkcopy.bytes", m.bulkcopy.bytes - before.bulkcopy.bytes);
  if (span->active()) {
    span->AddAttr("rows", m.rows_moved - before.rows_moved);
    span->AddAttr("network_bytes", m.network.bytes - before.network.bytes);
  }
}

}  // namespace

void DmsRunMetrics::Accumulate(const DmsRunMetrics& other) {
  reader.bytes += other.reader.bytes;
  reader.seconds += other.reader.seconds;
  network.bytes += other.network.bytes;
  network.seconds += other.network.seconds;
  writer.bytes += other.writer.bytes;
  writer.seconds += other.writer.seconds;
  bulkcopy.bytes += other.bulkcopy.bytes;
  bulkcopy.seconds += other.bulkcopy.seconds;
  rows_moved += other.rows_moved;
  wall_seconds += other.wall_seconds;
}

std::string DmsRunMetrics::ToString() const {
  // All byte/seconds rendering goes through the shared obs helpers so DMS,
  // optimizer, and executor metrics read identically.
  return "rows=" + obs::FormatCount(rows_moved) + " " +
         obs::FormatComponent("reader", reader.bytes, reader.seconds) + " " +
         obs::FormatComponent("network", network.bytes, network.seconds) +
         " " + obs::FormatComponent("writer", writer.bytes, writer.seconds) +
         " " +
         obs::FormatComponent("bulkcopy", bulkcopy.bytes, bulkcopy.seconds) +
         " wall=" + obs::FormatSeconds(wall_seconds);
}

Result<std::vector<RowVector>> DmsService::Execute(
    DmsOpKind kind, std::vector<RowVector> source_rows,
    const std::vector<int>& hash_ordinals, DmsRunMetrics* metrics,
    ThreadPool* pool, const DmsExecOptions& options) {
  int total_slots = nodes_ + 1;
  if (static_cast<int>(source_rows.size()) != total_slots) {
    return Status::InvalidArgument("source_rows must have one slot per node");
  }
  // Materialized inputs become trivial producers; the pipeline then
  // overlaps packing, transfer and unpacking across nodes.
  std::vector<DmsProducer> producers(static_cast<size_t>(total_slots));
  for (int i = 0; i < total_slots; ++i) {
    RowVector& rows = source_rows[static_cast<size_t>(i)];
    if (rows.empty()) continue;
    producers[static_cast<size_t>(i)] =
        [moved = std::move(rows)]() mutable -> Result<RowVector> {
      return std::move(moved);
    };
  }
  return ExecutePipelined(kind, std::move(producers), hash_ordinals, metrics,
                          pool, options);
}

Result<std::vector<RowVector>> DmsService::ExecutePipelined(
    DmsOpKind kind, std::vector<DmsProducer> producers,
    const std::vector<int>& hash_ordinals, DmsRunMetrics* metrics,
    ThreadPool* pool, const DmsExecOptions& options) {
  int n = nodes_;
  int total_slots = n + 1;
  if (static_cast<int>(producers.size()) != total_slots) {
    return Status::InvalidArgument("producers must have one slot per node");
  }
  bool hashes = kind == DmsOpKind::kShuffle || kind == DmsOpKind::kTrimMove;
  if (hashes && hash_ordinals.empty()) {
    return Status::InvalidArgument("hash move without hash columns");
  }

  DmsRunMetrics local_metrics;
  DmsRunMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  const DmsRunMetrics before = *m;
  double wall_start = NowSeconds();
  obs::TraceSpan span("dms.execute");
  span.AddAttr("kind", std::string(DmsOpKindToString(kind)));

  const int batch_size =
      options.batch_size > 0 ? options.batch_size : kDmsWireBatchRows;

  /// Inbound side of one destination node. Senders unpack and bulk-copy
  /// into it under `mu`, so one destination takes one batch at a time.
  struct DestState {
    std::mutex mu;
    /// chunks[src] = unpacked row chunks of that source in sequence order
    /// (a sender delivers its batches to each destination in order).
    std::vector<std::vector<RowVector>> chunks;
  };
  std::vector<DestState> dests(static_cast<size_t>(total_slots));
  for (DestState& d : dests) d.chunks.resize(static_cast<size_t>(total_slots));

  // node_m[i] holds node i's sender meters (reader, network), written only
  // by source i's task, and its destination meters (writer, bulkcopy),
  // written under dests[i].mu.
  std::vector<DmsRunMetrics> node_m(static_cast<size_t>(total_slots));
  std::vector<Status> status(static_cast<size_t>(total_slots));
  std::atomic<bool> failed{false};

  // Hands one packed wire batch from `src` to `dst`: the sender crosses the
  // network itself, then unpacks and bulk-copies under the destination's
  // mutex. Every batch passes through here, so a cancelled query stops
  // moving data within one wire batch. After another sender failed, the
  // batch is dropped and the caller stops at its next batch.
  auto deliver = [&](int src, int dst,
                     const std::vector<uint8_t>& bytes) -> Status {
    PDW_FAULT_POINT("dms.queue_push");
    bool cross = src != dst;
    if (cross) PDW_FAULT_POINT("dms.network");
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled during DMS hand-off");
    }
    DmsRunMetrics& sm = node_m[static_cast<size_t>(src)];
    double t0 = NowSeconds();
    DestState& d = dests[static_cast<size_t>(dst)];
    std::lock_guard<std::mutex> lock(d.mu);
    if (cross) {
      sm.network.bytes += static_cast<double>(bytes.size());
      sm.network.seconds += NowSeconds() - t0;
    }
    if (failed.load(std::memory_order_relaxed)) return Status::OK();
    DmsRunMetrics& dm = node_m[static_cast<size_t>(dst)];
    PDW_FAULT_POINT("dms.unpack");
    double t1 = NowSeconds();
    size_t offset = 0;
    // Decode the wire batch straight into destination row storage — no
    // intermediate ColumnBatch on the receive side.
    RowVector chunk;
    PDW_RETURN_NOT_OK(UnpackBatchToRows(bytes, &offset, &chunk).status());
    dm.writer.bytes += static_cast<double>(bytes.size());
    double t2 = NowSeconds();
    dm.writer.seconds += t2 - t1;
    PDW_FAULT_POINT("dms.bulkcopy");
    // Bulk copy: account the materialized rows for the destination
    // temp-table storage, metered in row widths.
    for (const Row& row : chunk) {
      dm.bulkcopy.bytes += static_cast<double>(RowWidth(row));
    }
    if (options.progress && !chunk.empty()) {
      options.progress(static_cast<double>(chunk.size()),
                       static_cast<double>(bytes.size()));
    }
    d.chunks[static_cast<size_t>(src)].push_back(std::move(chunk));
    dm.bulkcopy.seconds += NowSeconds() - t2;
    return Status::OK();
  };

  // One source: producer → slice → route → pack → deliver. Returns the
  // source's first error; the caller raises `failed` for the others.
  auto send_all = [&](int src) -> Status {
    DmsRunMetrics& nm = node_m[static_cast<size_t>(src)];
    PDW_ASSIGN_OR_RETURN(RowVector rows, producers[static_cast<size_t>(src)]());
    size_t arity = rows.empty() ? 0 : rows[0].size();
    std::vector<TypeId> types = options.types;
    if (types.size() != arity) types = InferRowTypes(rows);
    std::vector<SelVector> parts;
    std::vector<uint8_t> bytes;

    // Packs a slice of `rows` (contiguous [begin, end), or the selected
    // subset) straight from row storage into a wire batch — no
    // intermediate ColumnBatch on the send side. Pack time is reader work.
    auto pack = [&](size_t begin, size_t end, const SelVector* sel,
                    double* reader_dt) -> Status {
      PDW_FAULT_POINT("dms.pack");
      double t0 = NowSeconds();
      bytes.clear();
      auto packed = sel != nullptr
                        ? PackRowsColumnarSelected(rows, *sel, types, &bytes)
                        : PackRowsColumnar(rows, begin, end, types, &bytes);
      *reader_dt += NowSeconds() - t0;
      PDW_RETURN_NOT_OK(packed.status());
      nm.reader.bytes += static_cast<double>(*packed);
      return Status::OK();
    };
    // A hash slice for `dst`: the whole range when every row routes there.
    auto pack_part = [&](int dst, size_t begin, size_t end,
                         double* reader_dt) -> Status {
      const SelVector& sel = parts[static_cast<size_t>(dst)];
      return pack(begin, end, sel.size() == end - begin ? nullptr : &sel,
                  reader_dt);
    };

    for (size_t begin = 0;
         begin < rows.size() && !failed.load(std::memory_order_relaxed);
         begin += static_cast<size_t>(batch_size)) {
      size_t end =
          std::min(rows.size(), begin + static_cast<size_t>(batch_size));
      double reader_dt = 0;
      double t0 = NowSeconds();
      switch (kind) {
        case DmsOpKind::kShuffle:
          HashPartitionRows(rows, begin, end, hash_ordinals, n, &parts);
          reader_dt += NowSeconds() - t0;
          for (int dst = 0; dst < n; ++dst) {
            if (parts[static_cast<size_t>(dst)].empty()) continue;
            PDW_RETURN_NOT_OK(pack_part(dst, begin, end, &reader_dt));
            PDW_RETURN_NOT_OK(deliver(src, dst, bytes));
          }
          break;
        case DmsOpKind::kTrimMove:
          // Keep only this node's hash slice; purely local delivery.
          HashPartitionRows(rows, begin, end, hash_ordinals, n, &parts);
          reader_dt += NowSeconds() - t0;
          if (src < n && !parts[static_cast<size_t>(src)].empty()) {
            PDW_RETURN_NOT_OK(pack_part(src, begin, end, &reader_dt));
            PDW_RETURN_NOT_OK(deliver(src, src, bytes));
          }
          break;
        case DmsOpKind::kPartitionMove:
        case DmsOpKind::kRemoteCopyToSingle:
          reader_dt += NowSeconds() - t0;
          PDW_RETURN_NOT_OK(pack(begin, end, nullptr, &reader_dt));
          PDW_RETURN_NOT_OK(deliver(src, control_node(), bytes));
          break;
        case DmsOpKind::kControlNodeMove:
        case DmsOpKind::kBroadcastMove:
        case DmsOpKind::kReplicatedBroadcast:
          // Pack the slice once; every target receives the same bytes
          // (reader reads once, the network fans out — the Fig. 5
          // broadcast byte structure).
          reader_dt += NowSeconds() - t0;
          PDW_RETURN_NOT_OK(pack(begin, end, nullptr, &reader_dt));
          for (int dst = 0; dst < n; ++dst) {
            PDW_RETURN_NOT_OK(deliver(src, dst, bytes));
          }
          break;
      }
      nm.reader.seconds += reader_dt;
      nm.rows_moved += static_cast<double>(end - begin);
    }
    return Status::OK();
  };

  // One task per source; early sources' batches land while later sources
  // are still producing.
  std::vector<int> sources;
  for (int i = 0; i < total_slots; ++i) {
    if (producers[static_cast<size_t>(i)]) sources.push_back(i);
  }
  auto run_source = [&](int i) {
    int src = sources[static_cast<size_t>(i)];
    Status s = send_all(src);
    if (!s.ok()) {
      status[static_cast<size_t>(src)] = std::move(s);
      failed.store(true, std::memory_order_relaxed);
    }
  };
  int num_sources = static_cast<int>(sources.size());
  if (pool != nullptr) {
    pool->ParallelFor(num_sources, run_source);
  } else {
    for (int i = 0; i < num_sources; ++i) run_source(i);
  }

  for (const Status& s : status) {
    if (!s.ok()) return s;
  }

  // Assemble each destination's rows in (source, sequence) order, so the
  // result never depends on which sender finished first.
  std::vector<RowVector> result(static_cast<size_t>(total_slots));
  for (int dst = 0; dst < total_slots; ++dst) {
    DmsRunMetrics& nm = node_m[static_cast<size_t>(dst)];
    double t0 = NowSeconds();
    RowVector& out = result[static_cast<size_t>(dst)];
    size_t total = 0;
    for (const auto& per_src : dests[static_cast<size_t>(dst)].chunks) {
      for (const RowVector& chunk : per_src) total += chunk.size();
    }
    out.reserve(total);
    for (auto& per_src : dests[static_cast<size_t>(dst)].chunks) {
      for (RowVector& chunk : per_src) {
        out.insert(out.end(), std::make_move_iterator(chunk.begin()),
                   std::make_move_iterator(chunk.end()));
      }
    }
    nm.bulkcopy.seconds += NowSeconds() - t0;
  }

  for (const DmsRunMetrics& nm : node_m) m->Accumulate(nm);
  m->wall_seconds += NowSeconds() - wall_start;
  FoldRunIntoRegistry(before, *m, &span);
  return result;
}

DmsCostParameters CalibrateCostModel(int rows_per_probe) {
  // Synthetic rows resembling a shuffled intermediate result.
  RowVector rows;
  rows.reserve(static_cast<size_t>(rows_per_probe));
  for (int i = 0; i < rows_per_probe; ++i) {
    rows.push_back(Row{Datum::Int(i), Datum::Double(i * 0.5),
                       Datum::Varchar("payload-" + std::to_string(i % 97)),
                       Datum::Date(9000 + (i % 1000))});
  }

  auto measure = [&](auto&& body) {
    double t0 = NowSeconds();
    double bytes = body();
    double dt = NowSeconds() - t0;
    return bytes > 0 ? dt / bytes : 0.0;
  };

  DmsCostParameters p;
  std::vector<int> hash_cols = {0};

  // Every probe does the same component work the pipelined path does,
  // one wire batch at a time.
  const std::vector<TypeId> types = {TypeId::kInt, TypeId::kDouble,
                                     TypeId::kVarchar, TypeId::kDate};
  const int bs = kDmsWireBatchRows;
  auto for_each_slice = [&](auto&& fn) {
    for (size_t begin = 0; begin < rows.size();
         begin += static_cast<size_t>(bs)) {
      size_t end = std::min(rows.size(), begin + static_cast<size_t>(bs));
      fn(begin, end);
    }
  };
  // Reader (direct): pack straight from row storage, as the pipeline does.
  p.lambda_reader_direct = measure([&]() {
    std::vector<uint8_t> buf;
    double bytes = 0;
    for_each_slice([&](size_t begin, size_t end) {
      auto r = PackRowsColumnar(rows, begin, end, types, &buf);
      if (r.ok()) bytes += static_cast<double>(*r);
    });
    return bytes;
  });
  // Reader (hash): route + pack each destination's selection.
  p.lambda_reader_hash = measure([&]() {
    std::vector<uint8_t> buf;
    std::vector<SelVector> parts;
    double bytes = 0;
    for_each_slice([&](size_t begin, size_t end) {
      HashPartitionRows(rows, begin, end, hash_cols, 8, &parts);
      for (const SelVector& sel : parts) {
        if (sel.empty()) continue;
        auto r = PackRowsColumnarSelected(rows, sel, types, &buf);
        if (r.ok()) bytes += static_cast<double>(*r);
      }
    });
    return bytes;
  });
  // The wire batches the network and writer probes consume, packed
  // outside their clocks.
  std::vector<uint8_t> wire;
  for_each_slice([&](size_t begin, size_t end) {
    (void)PackRowsColumnar(rows, begin, end, types, &wire).ok();
  });
  // Network: byte transfer between nodes.
  p.lambda_network = measure([&]() {
    std::vector<uint8_t> inbound;
    inbound.insert(inbound.end(), wire.begin(), wire.end());
    return static_cast<double>(inbound.size());
  });
  // A queue append under-represents a real network; scale to keep the
  // relative component ordering of the paper (network slower than
  // packing). The scale factor is part of the simulator's definition.
  p.lambda_network *= 8;
  // Writer: decode wire batches straight into row storage, exactly the
  // pipeline's receive path.
  p.lambda_writer = measure([&]() {
    size_t offset = 0;
    RowVector dest;
    dest.reserve(rows.size());
    while (offset < wire.size()) {
      auto n = UnpackBatchToRows(wire, &offset, &dest);
      if (!n.ok()) break;
    }
    return static_cast<double>(wire.size());
  });
  // Bulk copy: width metering + chunk assembly into destination storage.
  RowVector chunk = rows;  // copied outside the probe's clock
  p.lambda_bulkcopy = measure([&]() {
    RowVector dest;
    dest.reserve(chunk.size());
    double bytes = 0;
    for (const Row& r : chunk) bytes += static_cast<double>(RowWidth(r));
    std::move(chunk.begin(), chunk.end(), std::back_inserter(dest));
    return bytes;
  });
  p.lambda_bulkcopy *= 6;  // temp-table materialization penalty

  // Calibration post-processing: hashing can never be cheaper than a
  // direct read; measurement noise at small probe sizes is clamped away.
  p.lambda_reader_hash =
      std::max(p.lambda_reader_hash, p.lambda_reader_direct * 1.05);
  return p;
}

}  // namespace pdw
