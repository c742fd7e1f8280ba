// Component microbenchmarks (google-benchmark): throughput of the
// individual stages that the end-to-end numbers aggregate — lexing,
// parsing, binding+normalizing, memo construction, parallel optimization,
// SQL generation, DMS wire packing, and executor operators.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "dms/dms_service.h"
#include "engine/executor.h"
#include "engine/local_engine.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace pdw {
namespace {

const char* kJoinQuery =
    "SELECT c_name, SUM(o_totalprice) AS total FROM customer, orders "
    "WHERE c_custkey = o_custkey AND o_orderdate >= DATE '1995-01-01' "
    "GROUP BY c_name ORDER BY total DESC LIMIT 10";

Appliance* SharedAppliance() {
  static Appliance* appliance = [] {
    auto* a = new Appliance(Topology{8});
    (void)tpch::CreateTpchTables(a);
    tpch::TpchConfig cfg;
    cfg.scale = 0.1;
    (void)tpch::LoadTpch(a, cfg);
    return a;
  }();
  return appliance;
}

void BM_Lexer(benchmark::State& state) {
  for (auto _ : state) {
    auto tokens = sql::Tokenize(kJoinQuery);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Lexer);

void BM_Parser(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(kJoinQuery);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parser);

void BM_CompileSerial(benchmark::State& state) {
  Appliance* a = SharedAppliance();
  for (auto _ : state) {
    auto comp = CompileQuery(a->shell(), kJoinQuery);
    benchmark::DoNotOptimize(comp);
  }
}
BENCHMARK(BM_CompileSerial);

void BM_FullPdwCompilation(benchmark::State& state) {
  Appliance* a = SharedAppliance();
  for (auto _ : state) {
    auto comp = CompilePdwQuery(a->shell(), kJoinQuery);
    benchmark::DoNotOptimize(comp);
  }
}
BENCHMARK(BM_FullPdwCompilation);

void BM_ParallelOptimizeOnly(benchmark::State& state) {
  Appliance* a = SharedAppliance();
  auto comp = CompilePdwQuery(a->shell(), kJoinQuery);
  for (auto _ : state) {
    PdwOptimizer opt(comp->serial.memo.get(), a->shell().topology());
    auto plan = opt.Optimize();
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ParallelOptimizeOnly);

void BM_DsqlGeneration(benchmark::State& state) {
  Appliance* a = SharedAppliance();
  auto comp = CompilePdwQuery(a->shell(), kJoinQuery);
  for (auto _ : state) {
    auto dsql = GenerateDsql(*comp->parallel.plan, comp->output_names);
    benchmark::DoNotOptimize(dsql);
  }
}
BENCHMARK(BM_DsqlGeneration);

// One wire batch through the DMS codec: PackRowsColumnar on the reader
// side, UnpackBatchToRows on the writer side.
void BM_DmsPackUnpack(benchmark::State& state) {
  RowVector rows;
  for (int i = 0; i < kDmsWireBatchRows; ++i) {
    rows.push_back({Datum::Int(i), Datum::Double(i * 0.5),
                    Datum::Varchar("payload-" + std::to_string(i % 97)),
                    Datum::Date(9000 + i % 1000)});
  }
  const std::vector<TypeId> types = {TypeId::kInt, TypeId::kDouble,
                                     TypeId::kVarchar, TypeId::kDate};
  size_t wire_bytes = 0;
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    auto packed = PackRowsColumnar(rows, 0, rows.size(), types, &buf);
    benchmark::DoNotOptimize(packed);
    size_t offset = 0;
    RowVector out;
    auto unpacked = UnpackBatchToRows(buf, &offset, &out);
    benchmark::DoNotOptimize(unpacked);
    wire_bytes = buf.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire_bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_DmsPackUnpack);

/// Status-returning wrapper so the macro's early-return path is compiled
/// exactly as it is at real injection sites.
Status TouchFaultPoint() {
  PDW_FAULT_POINT("dms.pack");
  return Status::OK();
}

// The disarmed overhead of one injection-point traversal — the acceptance
// bar for sprinkling PDW_FAULT_POINT on per-batch DMS paths. Expected: a
// relaxed atomic load + never-taken branch, low single-digit nanoseconds.
void BM_FaultPointDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    Status s = TouchFaultPoint();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FaultPointDisarmed);

void BM_DmsShuffle(benchmark::State& state) {
  DmsService dms(8);
  RowVector rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Datum::Int(i), Datum::Varchar("row-payload")});
  }
  for (auto _ : state) {
    std::vector<RowVector> slots(9);
    for (int n = 0; n < 8; ++n) slots[static_cast<size_t>(n)] = rows;
    auto out = dms.Execute(DmsOpKind::kShuffle, std::move(slots), {0});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8000);
}
BENCHMARK(BM_DmsShuffle);

void BM_ExecutorHashJoin(benchmark::State& state) {
  LocalEngine engine;
  (void)engine.ExecuteSql("CREATE TABLE l (a INT, v INT)");
  (void)engine.ExecuteSql("CREATE TABLE r (b INT, w INT)");
  for (int batch = 0; batch < 20; ++batch) {
    std::string values = "INSERT INTO l VALUES ";
    std::string values_r = "INSERT INTO r VALUES ";
    for (int i = 0; i < 100; ++i) {
      int k = batch * 100 + i;
      if (i > 0) {
        values += ", ";
        values_r += ", ";
      }
      values += "(" + std::to_string(k % 500) + ", " + std::to_string(k) + ")";
      values_r += "(" + std::to_string(k % 500) + ", " + std::to_string(k) + ")";
    }
    (void)engine.ExecuteSql(values);
    (void)engine.ExecuteSql(values_r);
  }
  for (auto _ : state) {
    auto rows = engine.ExecuteSql(
        "SELECT l.v, r.w FROM l, r WHERE l.a = r.b AND l.v < 1000");
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorHashJoin);

void BM_DistributedQueryEndToEnd(benchmark::State& state) {
  Appliance* a = SharedAppliance();
  Session session = a->Connect();
  for (auto _ : state) {
    auto result = session.Run(kJoinQuery);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DistributedQueryEndToEnd);

}  // namespace
}  // namespace pdw

BENCHMARK_MAIN();
