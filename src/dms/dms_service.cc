#include "dms/dms_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/fault.h"
#include "common/string_util.h"
#include "dms/bounded_queue.h"
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

/// One framed unit of the columnar pipeline: the bytes one source sends to
/// one destination, with a per-(src,dst) sequence number so destinations
/// can reassemble a deterministic row order regardless of arrival order.
struct WireMessage {
  int src = 0;
  uint32_t seq = 0;
  size_t rows = 0;
  std::vector<uint8_t> bytes;
};

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
  const size_t queue_capacity =
      options.queue_capacity > 0 ? static_cast<size_t>(options.queue_capacity)
                                 : 32;

  /// Inbound side of one destination node: the bounded queue producers
  /// push into, plus the consume lock that serializes unpack/bulk-copy
  /// work on this destination (held by its writer task, or briefly by a
  /// backpressured producer helping out).
  struct DestState {
    explicit DestState(size_t cap) : queue(cap) {}
    BoundedQueue<WireMessage> queue;
    std::mutex mu;
    /// chunks[src] = unpacked row chunks of that source in sequence order.
    std::vector<std::vector<RowVector>> chunks;
    Status status;
  };

  std::vector<std::unique_ptr<DestState>> dests;
  dests.reserve(static_cast<size_t>(total_slots));
  for (int i = 0; i < total_slots; ++i) {
    dests.push_back(std::make_unique<DestState>(queue_capacity));
    dests.back()->chunks.resize(static_cast<size_t>(total_slots));
  }

  std::vector<DmsRunMetrics> node_m(static_cast<size_t>(total_slots));
  std::vector<Status> reader_status(static_cast<size_t>(total_slots));
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> backpressure_events{0};

  // Abort signal: the first failure closes and drains every inbound queue,
  // so backpressured producers stop pushing (TryPush on a closed queue
  // never succeeds, and `send` re-checks `failed`) and writer loops run
  // out promptly instead of deadlocking on a full queue whose consumer
  // died.
  auto mark_failed = [&] {
    if (!failed.exchange(true, std::memory_order_acq_rel)) {
      for (auto& d : dests) d->queue.Abort();
    }
  };

  // Unpacks one message into its destination's chunk matrix. Must be
  // called with dests[dst]->mu held; meters writer/bulk-copy work on the
  // destination node. After a failure messages are drained unprocessed so
  // producers never stall on a doomed queue.
  auto process_message = [&](int dst, WireMessage msg) {
    DestState& d = *dests[static_cast<size_t>(dst)];
    if (failed.load(std::memory_order_relaxed)) return;
    DmsRunMetrics& nm = node_m[static_cast<size_t>(dst)];
    Status fs = fault::Check("dms.unpack");
    if (!fs.ok()) {
      if (d.status.ok()) d.status = std::move(fs);
      mark_failed();
      return;
    }
    double t0 = NowSeconds();
    size_t offset = 0;
    // Decode the wire batch straight into destination row storage — no
    // intermediate ColumnBatch on the receive side.
    RowVector chunk;
    auto unpacked = UnpackBatchToRows(msg.bytes, &offset, &chunk);
    if (!unpacked.ok()) {
      if (d.status.ok()) d.status = unpacked.status();
      mark_failed();
      return;
    }
    nm.writer.bytes += static_cast<double>(msg.bytes.size());
    double t1 = NowSeconds();
    nm.writer.seconds += t1 - t0;
    fs = fault::Check("dms.bulkcopy");
    if (!fs.ok()) {
      if (d.status.ok()) d.status = std::move(fs);
      mark_failed();
      return;
    }
    // Bulk copy: account the materialized rows for the destination
    // temp-table storage, metered in row widths.
    for (const Row& row : chunk) {
      nm.bulkcopy.bytes += static_cast<double>(RowWidth(row));
    }
    if (options.progress && !chunk.empty()) {
      options.progress(static_cast<double>(chunk.size()),
                       static_cast<double>(msg.bytes.size()));
    }
    auto& per_src = d.chunks[static_cast<size_t>(msg.src)];
    if (per_src.size() <= msg.seq) per_src.resize(msg.seq + 1);
    per_src[msg.seq] = std::move(chunk);
    nm.bulkcopy.seconds += NowSeconds() - t1;
  };

  // Backpressure helper: a producer facing a full queue tries to become
  // the destination's consumer for one message. Returns false only when
  // another thread holds the consume lock (and is therefore actively
  // draining) — the caller then waits briefly and retries, so progress
  // never depends on pool capacity being available for writer tasks.
  auto try_consume_one = [&](int dst) -> bool {
    DestState& d = *dests[static_cast<size_t>(dst)];
    std::unique_lock<std::mutex> lock(d.mu, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    auto msg = d.queue.TryPop();
    if (msg.has_value()) process_message(dst, std::move(*msg));
    return true;
  };

  auto send = [&](int src, int dst, WireMessage msg,
                  DmsRunMetrics& nm) -> Status {
    PDW_FAULT_POINT("dms.queue_push");
    // Queue pushes are the pipeline's cancellation points: every produced
    // batch passes through here, so a cancelled query stops moving data
    // within one wire batch instead of draining the whole stream.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled during DMS queue push");
    }
    bool cross = src != dst;
    double t0 = NowSeconds();
    if (cross) {
      PDW_FAULT_POINT("dms.network");
      nm.network.bytes += static_cast<double>(msg.bytes.size());
    }
    DestState& d = *dests[static_cast<size_t>(dst)];
    while (!d.queue.TryPush(std::move(msg))) {
      // Abort signal: after a failure every queue is closed, so TryPush
      // can never succeed again — drop the message and let the reader
      // loop observe `failed` instead of helping/waiting forever.
      if (failed.load(std::memory_order_relaxed)) return Status::OK();
      // A backpressured producer must also observe cancellation, or a
      // cancelled query with a full queue would block until its writer
      // happened to drain.
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        return Status::Cancelled("query cancelled during DMS queue push");
      }
      backpressure_events.fetch_add(1, std::memory_order_relaxed);
      if (!try_consume_one(dst)) {
        d.queue.WaitNotFullFor(std::chrono::microseconds(200));
      }
    }
    if (cross) nm.network.seconds += NowSeconds() - t0;
    return Status::OK();
  };

  // Reader slots and the close protocol: the last reader to finish closes
  // every inbound queue, releasing the writer loops.
  std::vector<int> reader_slots;
  for (int i = 0; i < total_slots; ++i) {
    if (producers[static_cast<size_t>(i)]) reader_slots.push_back(i);
  }
  std::atomic<int> readers_remaining{static_cast<int>(reader_slots.size())};
  auto close_all = [&] {
    for (auto& d : dests) d->queue.Close();
  };
  if (reader_slots.empty()) close_all();

  auto reader_task = [&](int src) {
    DmsRunMetrics& nm = node_m[static_cast<size_t>(src)];
    auto produced = producers[static_cast<size_t>(src)]();
    if (!produced.ok()) {
      reader_status[static_cast<size_t>(src)] = produced.status();
      mark_failed();
    } else {
      RowVector rows = std::move(*produced);
      size_t arity = rows.empty() ? 0 : rows[0].size();
      std::vector<TypeId> types = options.types;
      if (types.size() != arity) types = InferRowTypes(rows);
      std::vector<uint32_t> seqs(static_cast<size_t>(total_slots), 0);
      std::vector<SelVector> parts;

      // Packs a slice of `rows` (contiguous [begin, end), or the selected
      // subset) straight from row storage into a wire message for `dst` and
      // pushes it — no intermediate ColumnBatch on the send side. Pack time
      // is reader work; queue wait is network time (metered inside send).
      auto emit = [&](int dst, size_t begin, size_t end, const SelVector* sel,
                      double* reader_dt) {
        Status fs = fault::Check("dms.pack");
        if (!fs.ok()) {
          reader_status[static_cast<size_t>(src)] = std::move(fs);
          mark_failed();
          return;
        }
        WireMessage msg;
        msg.src = src;
        msg.seq = seqs[static_cast<size_t>(dst)]++;
        msg.rows = sel != nullptr ? sel->size() : end - begin;
        double t0 = NowSeconds();
        auto bytes =
            sel != nullptr
                ? PackRowsColumnarSelected(rows, *sel, types, &msg.bytes)
                : PackRowsColumnar(rows, begin, end, types, &msg.bytes);
        *reader_dt += NowSeconds() - t0;
        if (!bytes.ok()) {
          reader_status[static_cast<size_t>(src)] = bytes.status();
          mark_failed();
          return;
        }
        nm.reader.bytes += static_cast<double>(*bytes);
        Status ss = send(src, dst, std::move(msg), nm);
        if (!ss.ok()) {
          reader_status[static_cast<size_t>(src)] = std::move(ss);
          mark_failed();
        }
      };

      for (size_t begin = 0;
           begin < rows.size() && !failed.load(std::memory_order_relaxed);
           begin += static_cast<size_t>(batch_size)) {
        size_t end =
            std::min(rows.size(), begin + static_cast<size_t>(batch_size));
        double reader_dt = 0;
        double t0 = NowSeconds();
        switch (kind) {
          case DmsOpKind::kShuffle: {
            HashPartitionRows(rows, begin, end, hash_ordinals, n, &parts);
            reader_dt += NowSeconds() - t0;
            for (int dst = 0; dst < n; ++dst) {
              const SelVector& sel = parts[static_cast<size_t>(dst)];
              if (sel.empty()) continue;
              emit(dst, begin, end, sel.size() == end - begin ? nullptr : &sel,
                   &reader_dt);
              if (failed.load(std::memory_order_relaxed)) break;
            }
            break;
          }
          case DmsOpKind::kTrimMove: {
            // Keep only this node's hash slice; purely local delivery.
            HashPartitionRows(rows, begin, end, hash_ordinals, n, &parts);
            reader_dt += NowSeconds() - t0;
            if (src < n) {
              const SelVector& sel = parts[static_cast<size_t>(src)];
              if (!sel.empty()) {
                emit(src, begin, end,
                     sel.size() == end - begin ? nullptr : &sel, &reader_dt);
              }
            }
            break;
          }
          case DmsOpKind::kPartitionMove:
          case DmsOpKind::kRemoteCopyToSingle:
            reader_dt += NowSeconds() - t0;
            emit(control_node(), begin, end, nullptr, &reader_dt);
            break;
          case DmsOpKind::kControlNodeMove:
          case DmsOpKind::kBroadcastMove:
          case DmsOpKind::kReplicatedBroadcast: {
            // Pack the slice once; every target receives a copy of the
            // same bytes (reader reads once, the network fans out — the
            // Fig. 5 broadcast byte structure).
            Status fs = fault::Check("dms.pack");
            if (!fs.ok()) {
              reader_status[static_cast<size_t>(src)] = std::move(fs);
              mark_failed();
              break;
            }
            WireMessage proto;
            proto.src = src;
            proto.rows = end - begin;
            auto bytes = PackRowsColumnar(rows, begin, end, types,
                                          &proto.bytes);
            reader_dt += NowSeconds() - t0;
            if (!bytes.ok()) {
              reader_status[static_cast<size_t>(src)] = bytes.status();
              mark_failed();
              break;
            }
            nm.reader.bytes += static_cast<double>(*bytes);
            for (int dst = 0; dst < n; ++dst) {
              WireMessage msg = proto;  // copy of the packed bytes
              msg.seq = seqs[static_cast<size_t>(dst)]++;
              Status ss = send(src, dst, std::move(msg), nm);
              if (!ss.ok()) {
                reader_status[static_cast<size_t>(src)] = std::move(ss);
                mark_failed();
              }
              if (failed.load(std::memory_order_relaxed)) break;
            }
            break;
          }
        }
        nm.reader.seconds += reader_dt;
        nm.rows_moved += static_cast<double>(end - begin);
      }
    }
    if (readers_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      close_all();
    }
  };

  auto writer_task = [&](int dst) {
    DestState& d = *dests[static_cast<size_t>(dst)];
    // Holding the consume lock across the loop is safe: Pop only blocks
    // while the queue is empty, in which case producers cannot be stuck on
    // a full queue; backpressured producers use try_lock and fall back to
    // a bounded wait.
    std::lock_guard<std::mutex> lock(d.mu);
    for (;;) {
      auto msg = d.queue.Pop();
      if (!msg.has_value()) break;
      process_message(dst, std::move(*msg));
    }
  };

  // One task per source (producer → slice → route → pack → send) plus one
  // per destination (receive → unpack → bulk-copy), all claimed from the
  // shared pool; readers occupy the low indices so they are claimed first.
  int num_readers = static_cast<int>(reader_slots.size());
  int total_tasks = num_readers + total_slots;
  auto run_task = [&](int i) {
    if (i < num_readers) {
      reader_task(reader_slots[static_cast<size_t>(i)]);
    } else {
      writer_task(i - num_readers);
    }
  };
  if (pool != nullptr) {
    // max_workers is the per-query thread budget (WLM resource class);
    // the caller participates, so any cap still makes progress.
    pool->ParallelFor(total_tasks, run_task, options.max_workers);
  } else {
    for (int i = 0; i < total_tasks; ++i) run_task(i);
  }

  for (const Status& s : reader_status) {
    if (!s.ok()) return s;
  }
  for (const auto& d : dests) {
    if (!d->status.ok()) return d->status;
  }

  // Assemble each destination's rows in (source, sequence) order, so the
  // result never depends on which worker finished first.
  std::vector<RowVector> result(static_cast<size_t>(total_slots));
  for (int dst = 0; dst < total_slots; ++dst) {
    DmsRunMetrics& nm = node_m[static_cast<size_t>(dst)];
    double t0 = NowSeconds();
    RowVector& out = result[static_cast<size_t>(dst)];
    size_t total = 0;
    for (const auto& per_src : dests[static_cast<size_t>(dst)]->chunks) {
      for (const RowVector& chunk : per_src) total += chunk.size();
    }
    out.reserve(total);
    for (auto& per_src : dests[static_cast<size_t>(dst)]->chunks) {
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
  obs::MetricsRegistry::Global().Count(
      "dms.pipeline.backpressure_waits",
      static_cast<double>(backpressure_events.load()));
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
  // Network: byte transfer between queues.
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
