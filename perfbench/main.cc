// perfbench: the end-to-end benchmark of the PDW appliance simulator.
//
//   perfbench --workload adhoc_small|report_large|dashboard_mix
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Loads TPC-H into an 8-node in-process appliance, drives the workload
// through Appliance::Connect() / Session::Run for S seconds with tracing
// off, checks every result against Appliance::ExecuteReference, and prints
// the end-to-end metrics. With --trace 1 it then replays the same requests
// with spans recorded around each call, calls every layer's public entry
// point on the same statements (parse, bind, normalize, memo, XML, PDW
// optimize, baseline, DSQL generation, node-local compile and execution,
// the reference engine, DMS moves), and prints the per-layer metrics
// instead. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 1 when a result differs from the reference (correct is then
// false), 2 on a usage or setup error, 3 when an open-loop run is invalid
// (its backlog grew or it dropped requests).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/binder.h"
#include "algebra/normalizer.h"
#include "appliance/appliance.h"
#include "host_probe.h"
#include "optimizer/cardinality.h"
#include "optimizer/memo.h"
#include "optimizer/serial_optimizer.h"
#include "optimizer/stats_context.h"
#include "pdw/baseline.h"
#include "pdw/dsql.h"
#include "pdw/pdw_optimizer.h"
#include "sql/parser.h"
#include "stats.h"
#include "tpch/tpch.h"
#include "trace.h"
#include "workloads.h"
#include "xmlio/memo_xml.h"

namespace perfbench {
namespace {

using pdw::Appliance;
using pdw::ApplianceResult;
using pdw::RowVector;

constexpr int kNodes = 8;
/// Zipf exponent of the dashboard statement draw: over ~600 statements it
/// gives the 64-entry result cache a hit ratio of about a third, so every
/// template's median latency lies among the misses.
constexpr double kDashboardZipf = 0.75;
/// Fixes the dashboard's popularity order (which statement holds each rank).
constexpr uint64_t kPopularitySeed = 20120520;
/// Open loop: the window's blocks are this many seconds of due times.
constexpr double kOpenBlockSeconds = 2.0;
/// Open loop: a session spins for the last this many seconds before a
/// request is due instead of sleeping through them.
constexpr double kOpenSpinSeconds = 0.002;

struct WorkloadSpec {
  const char* name;
  double scale;
  int sessions;
  bool open_loop;
  double offered_qps;       ///< Open loop: total over all sessions.
  double latency_limit_ms;  ///< Open loop: the limit on p95.
  bool result_cache;
  /// Which host probe the window's timings are scaled by: the one that
  /// tracked this workload's latency across contended and quiet runs.
  HostProbe::Kind scale_by;
  /// setup_s is the median over `setup_batches` batches of the mean time of
  /// one setup in the batch, each scaled by the compute probe around it; a
  /// batch of `setup_batch` setups lasts about half a second.
  int setup_batches;
  int setup_batch;
  int min_rounds;    ///< Closed loop: whole rounds the window runs at least.
  int count_rounds;  ///< Closed loop: rounds the deterministic counts cover.
  int block_rounds;  ///< Closed loop: rounds per block of the window.
  StatementSet (*statements)();
};

const WorkloadSpec kWorkloads[] = {
    {"adhoc_small", 0.2, 1, false, 0, 0, false, HostProbe::kWake, 10, 7, 40,
     40, 12, AdhocStatements},
    {"report_large", 4.0, 1, false, 0, 0, false, HostProbe::kCompute, 5, 1,
     18, 1, 2, ReportStatements},
    {"dashboard_mix", 1.0, 4, true, 60, 50, true, HostProbe::kWake, 8, 2, 0,
     0, 0, DashboardStatements},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

/// Resident memory in MB, after handing freed heap back to the system so
/// the figure tracks live data rather than allocator slack.
double ResidentMb() {
  malloc_trim(0);
  long size = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

pdw::tpch::TpchConfig TpchAt(double scale) {
  pdw::tpch::TpchConfig config;
  config.scale = scale;
  return config;
}

/// Creates the appliance and runs the program's own write path:
/// CreateTpchTables, then LoadTpch, which generates every table and calls
/// LoadRows on it (LoadRows ends by refreshing the table's statistics).
std::unique_ptr<Appliance> Setup(double scale, double* seconds) {
  double t0 = NowSeconds();
  auto appliance = std::make_unique<Appliance>(pdw::Topology{kNodes});
  pdw::Status s = pdw::tpch::CreateTpchTables(appliance.get());
  if (s.ok()) s = pdw::tpch::LoadTpch(appliance.get(), TpchAt(scale));
  if (!s.ok()) Die("setup: " + s.ToString());
  *seconds = NowSeconds() - t0;
  return appliance;
}

/// Times the write path's layers one call at a time on a fresh appliance:
/// each table's Generate*, its LoadRows (statistics refresh included), and
/// then a standalone RefreshStatistics of the loaded table, a call setup
/// itself does not make. One request covers the whole load.
void ProbeSetup(double scale, Tracer* tracer, uint64_t request) {
  auto appliance = std::make_unique<Appliance>(pdw::Topology{kNodes});
  pdw::Status s = pdw::tpch::CreateTpchTables(appliance.get());
  if (!s.ok()) Die("create tables: " + s.ToString());
  const pdw::tpch::TpchConfig config = TpchAt(scale);
  struct Table {
    const char* name;
    RowVector (*generate)(const pdw::tpch::TpchConfig&);
  };
  const Table tables[] = {
      {"region", pdw::tpch::GenerateRegion},
      {"nation", pdw::tpch::GenerateNation},
      {"supplier", pdw::tpch::GenerateSupplier},
      {"customer", pdw::tpch::GenerateCustomer},
      {"orders", pdw::tpch::GenerateOrders},
      {"lineitem", pdw::tpch::GenerateLineitem},
      {"part", pdw::tpch::GeneratePart},
      {"partsupp", pdw::tpch::GeneratePartsupp},
  };
  auto root = tracer->Begin("setup", request);
  for (const Table& t : tables) {
    RowVector rows;
    {
      auto span = tracer->Begin("tpch.generate", request);
      rows = t.generate(config);
    }
    {
      auto span = tracer->Begin("appliance.load", request);
      s = appliance->LoadRows(t.name, rows);
    }
    if (!s.ok()) Die(std::string("load ") + t.name + ": " + s.ToString());
    {
      auto span = tracer->Begin("stats.refresh", request);
      s = appliance->RefreshStatistics(t.name);
    }
    if (!s.ok()) Die(std::string("refresh ") + t.name + ": " + s.ToString());
  }
}

pdw::QueryOptions SessionOptions(const WorkloadSpec& spec) {
  return pdw::QueryOptions().WithResultCache(spec.result_cache);
}

/// What one request did: its timing (seconds from the run's origin), its
/// rows for the reference check, and the layer figures its result reports.
struct Outcome {
  int statement = 0;
  int tmpl = 0;
  int block = 0;  ///< Which block of the timed window it belongs to.
  double due = 0;
  double sent = 0;
  double done = 0;
  double sent_at = 0;  ///< Steady-clock seconds, to match host probes.
  double done_at = 0;
  bool ok = false;
  bool dropped = false;  ///< Open loop: never sent, the generator was late.
  std::string error;
  RowVector rows;
  bool result_cache_hit = false;
  double compile_s = 0;
  double queue_s = 0;
  double step_s = 0;
  double node_s = 0;
  double reader_s = 0, network_s = 0, writer_s = 0, bulkcopy_s = 0;
  double net_bytes = 0;
  double rows_moved = 0;
  int steps = 0;
  int dms_steps = 0;
  int follows = 0;
  double memo_exprs = 0;
  double qerror_max = 0;
  std::vector<double> node_skews;  ///< Max over mean node seconds per step.

  double service() const { return done - sent; }
};

void Digest(ApplianceResult result, Outcome* o) {
  o->ok = true;
  o->rows = std::move(result.rows);
  o->result_cache_hit = result.result_cache_hit;
  o->compile_s = result.profile.compile_seconds;
  o->queue_s = result.queue_seconds;
  o->net_bytes = result.dms_metrics.network.bytes;
  o->steps = static_cast<int>(result.dsql.steps.size());
  for (const pdw::DsqlStep& step : result.dsql.steps) {
    if (step.kind == pdw::DsqlStepKind::kDms) ++o->dms_steps;
  }
  o->follows = result.shared_steps_followed;
  o->memo_exprs = result.profile.optimizer.memo_exprs;
  for (const pdw::obs::StepProfile& sp : result.profile.steps) {
    o->step_s += sp.measured_seconds;
    o->reader_s += sp.reader.seconds;
    o->network_s += sp.network.seconds;
    o->writer_s += sp.writer.seconds;
    o->bulkcopy_s += sp.bulkcopy.seconds;
    o->rows_moved += sp.rows_moved;
    o->qerror_max = std::max(o->qerror_max, sp.MisestimateFactor());
    double sum = 0, peak = 0;
    for (const auto& [node, secs] : sp.node_seconds) {
      sum += secs;
      peak = std::max(peak, secs);
    }
    o->node_s += sum;
    if (sp.node_seconds.size() >= 2 && sum > 0) {
      o->node_skews.push_back(
          peak / (sum / static_cast<double>(sp.node_seconds.size())));
    }
  }
}

Outcome RunOne(pdw::Session* session, const StatementSet& set, int statement,
               double origin, double due, Tracer* tracer, uint64_t request) {
  Outcome o;
  o.statement = statement;
  o.tmpl = set.statements[static_cast<size_t>(statement)].tmpl;
  double sent = NowSeconds();
  pdw::Result<ApplianceResult> result = pdw::Status::Internal("not run");
  {
    auto root = tracer->Begin("request", request);
    auto span = tracer->Begin("appliance.run", request);
    result = session->Run(set.statements[static_cast<size_t>(statement)].sql);
  }
  double done = NowSeconds();
  o.sent = sent - origin;
  o.done = done - origin;
  o.sent_at = sent;
  o.done_at = done;
  o.due = due < 0 ? o.sent : due;
  if (result.ok()) {
    Digest(std::move(result).ValueOrDie(), &o);
  } else {
    o.error = result.status().ToString();
  }
  return o;
}

/// Runs the given statements back to back on one session (closed loop),
/// sampling the host between them when `probe` is given.
void RunSequence(pdw::Session* session, const StatementSet& set,
                 const std::vector<int>& statements, double origin,
                 Tracer* tracer, uint64_t* next_request,
                 std::vector<Outcome>* out, HostProbe* probe = nullptr) {
  for (int id : statements) {
    out->push_back(
        RunOne(session, set, id, origin, -1, tracer, (*next_request)++));
    if (probe != nullptr) probe->MaybeSample();
  }
}

/// Runs one seeded schedule per session, each session on its own thread,
/// sending every request when it is due (open loop). A request still unsent
/// `deadline` seconds after the start is dropped and counts as failed, so an
/// overloaded run ends instead of draining an ever-growing backlog. When
/// `probe` is given, one more thread samples the host throughout.
std::vector<Outcome> RunOpenLoop(Appliance* appliance,
                                 const WorkloadSpec& spec,
                                 const StatementSet& set,
                                 const std::vector<std::vector<Arrival>>& plan,
                                 double deadline, Tracer* tracer,
                                 uint64_t* next_request,
                                 HostProbe* probe = nullptr) {
  std::vector<std::vector<Outcome>> per_session(plan.size());
  std::vector<uint64_t> first_request(plan.size());
  for (size_t s = 0; s < plan.size(); ++s) {
    first_request[s] = *next_request;
    *next_request += plan[s].size();
  }
  double origin = NowSeconds() + 0.005;
  std::atomic<bool> sent_all{false};
  std::jthread sampler;
  if (probe != nullptr) {
    sampler = std::jthread([&] {
      while (!sent_all.load()) {
        probe->MaybeSample();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  {
    std::vector<std::jthread> threads;
    for (size_t s = 0; s < plan.size(); ++s) {
      threads.emplace_back([&, s] {
        pdw::Session session = appliance->Connect(SessionOptions(spec));
        for (size_t k = 0; k < plan[s].size(); ++k) {
          const Arrival& a = plan[s][k];
          // Sleep until shortly before the due time, then spin: a thread
          // woken from sleep on a contended host can run milliseconds late,
          // and that lateness would count as the request's latency.
          const double due_at = origin + a.due;
          const double wait = due_at - kOpenSpinSeconds - NowSeconds();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          while (NowSeconds() < due_at) {
          }
          if (NowSeconds() - origin > deadline) {
            Outcome dropped;
            dropped.statement = a.statement;
            dropped.due = a.due;
            dropped.dropped = true;
            dropped.error = "dropped: the generator fell past its deadline";
            per_session[s].push_back(std::move(dropped));
            continue;
          }
          per_session[s].push_back(RunOne(&session, set, a.statement, origin,
                                          a.due, tracer,
                                          first_request[s] + k));
        }
      });
    }
  }
  sent_all.store(true);
  if (sampler.joinable()) sampler.join();
  std::vector<Outcome> out;
  for (auto& v : per_session) {
    for (Outcome& o : v) out.push_back(std::move(o));
  }
  std::sort(out.begin(), out.end(),
            [](const Outcome& a, const Outcome& b) { return a.due < b.due; });
  return out;
}

/// The dashboard's per-session open-loop schedules over [0, seconds).
std::vector<std::vector<Arrival>> DashboardPlan(const WorkloadSpec& spec,
                                                const StatementSet& set,
                                                uint64_t seed, uint64_t salt,
                                                double seconds) {
  // One fixed popularity order for every seed: the ranks deal the templates
  // round-robin, each template's statements in one scrambled order, so the
  // same statements are hot in every run. The seed drives every session's
  // arrival times and Zipf draws.
  std::vector<std::vector<int>> by_template(set.template_names.size());
  for (size_t id = 0; id < set.statements.size(); ++id) {
    by_template[static_cast<size_t>(set.statements[id].tmpl)].push_back(
        static_cast<int>(id));
  }
  std::mt19937_64 rng(kPopularitySeed);
  for (auto& ids : by_template) std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<int> popularity;
  for (size_t depth = 0; popularity.size() < set.statements.size(); ++depth) {
    for (const auto& ids : by_template) {
      if (depth < ids.size()) popularity.push_back(ids[depth]);
    }
  }
  Zipf zipf(static_cast<int>(popularity.size()), kDashboardZipf);
  std::vector<std::vector<Arrival>> plan;
  for (int s = 0; s < spec.sessions; ++s) {
    plan.push_back(UniformArrivals(
        MixSeed(seed, salt + static_cast<uint64_t>(s)),
        spec.offered_qps / spec.sessions, seconds, zipf, popularity));
  }
  return plan;
}

/// Diffs every sent outcome's rows against the single-node reference engine.
/// Returns the number of wrong outcomes (errors and wrong results); dropped
/// requests were never sent and are counted apart.
int VerifyAgainstReference(Appliance* appliance, const StatementSet& set,
                           const std::vector<Outcome*>& outcomes) {
  std::map<int, std::vector<const Outcome*>> by_statement;
  for (const Outcome* o : outcomes) {
    if (!o->dropped) by_statement[o->statement].push_back(o);
  }
  int failed = 0;
  for (const auto& [id, group] : by_statement) {
    const std::string& sql = set.statements[static_cast<size_t>(id)].sql;
    auto reference = appliance->ExecuteReference(sql);
    for (const Outcome* o : group) {
      bool good = o->ok && reference.ok() && pdw::RowSetsEqual(o->rows, reference->rows);
      if (good) continue;
      if (failed == 0) {
        std::fprintf(stderr, "perfbench: wrong result for statement %d: %s\n  %s\n",
                     id, sql.c_str(),
                     !o->ok ? o->error.c_str()
                     : !reference.ok() ? reference.status().ToString().c_str()
                                       : "rows differ from the reference");
      }
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Layer probes of the traced pass.

/// Calls each control-node compilation layer's public function on `sql`
/// in turn (the pipeline CompilePdwQuery runs, plus DSQL generation), then
/// compiles and executes every base-table-only DSQL step on compute node 0,
/// then runs the statement on the reference engine.
void ProbeStatement(Appliance* appliance, const std::string& sql,
                    Tracer* tracer, uint64_t request) {
  const pdw::Catalog& shell = appliance->shell();
  auto root = tracer->Begin("probe", request);
  std::unique_ptr<pdw::sql::SelectStatement> stmt;
  {
    auto span = tracer->Begin("sql.parse", request);
    auto r = pdw::sql::ParseSelect(sql);
    if (!r.ok()) Die("parse: " + r.status().ToString());
    stmt = std::move(r).ValueOrDie();
  }
  pdw::BoundQuery bound;
  {
    auto span = tracer->Begin("algebra.bind", request);
    pdw::Binder binder(shell);
    auto r = binder.BindSelect(*stmt);
    if (!r.ok()) Die("bind: " + r.status().ToString());
    bound = std::move(r).ValueOrDie();
  }
  pdw::LogicalOpPtr normalized;
  {
    auto span = tracer->Begin("algebra.normalize", request);
    auto r = pdw::Normalize(std::move(bound.root));
    if (!r.ok()) Die("normalize: " + r.status().ToString());
    normalized = std::move(r).ValueOrDie();
  }
  auto stats = std::make_shared<pdw::StatsContext>();
  std::shared_ptr<pdw::CardinalityEstimator> estimator;
  std::shared_ptr<pdw::Memo> memo;
  {
    auto span = tracer->Begin("optimizer.memo", request);
    stats->RegisterTree(*normalized);
    estimator = std::make_shared<pdw::CardinalityEstimator>(stats.get());
    memo = std::make_shared<pdw::Memo>(estimator.get(), pdw::MemoOptions{});
    auto r = memo->InsertTree(normalized);
    if (!r.ok()) Die("memo: " + r.status().ToString());
    span.set_value(static_cast<double>(memo->num_exprs()));
  }
  std::string xml;
  {
    auto span = tracer->Begin("xmlio.export", request);
    xml = pdw::MemoToXml(*memo, *stats);
    span.set_value(static_cast<double>(xml.size()));
  }
  pdw::ImportedMemo imported;
  {
    auto span = tracer->Begin("xmlio.import", request);
    auto r = pdw::MemoFromXml(xml, shell);
    if (!r.ok()) Die("xml import: " + r.status().ToString());
    imported = std::move(r).ValueOrDie();
  }
  pdw::PdwOptimizer optimizer(imported.memo.get(), shell.topology());
  pdw::PdwPlanResult plan;
  {
    auto span = tracer->Begin("pdw.optimize", request);
    auto r = optimizer.Optimize();
    if (!r.ok()) Die("pdw optimize: " + r.status().ToString());
    plan = std::move(r).ValueOrDie();
    span.set_value(static_cast<double>(plan.options_considered));
  }
  {
    auto span = tracer->Begin("pdw.baseline", request);
    auto serial = pdw::ExtractBestSerialPlan(memo.get());
    if (!serial.ok()) Die("serial plan: " + serial.status().ToString());
    auto baseline = pdw::ParallelizeSerialPlan(
        (*serial)->Clone(), shell.topology(), optimizer.interesting().equivalence);
    if (!baseline.ok()) Die("baseline: " + baseline.status().ToString());
  }
  pdw::DsqlPlan dsql;
  {
    auto span = tracer->Begin("pdw.dsql_gen", request);
    auto r = pdw::GenerateDsql(*plan.plan, bound.output_names, "tpch",
                               bound.visible_columns);
    if (!r.ok()) Die("dsql: " + r.status().ToString());
    dsql = std::move(r).ValueOrDie();
  }
  // Steps that read only base tables run as they are on any compute node;
  // steps over earlier steps' temp tables need those temps and are skipped.
  pdw::LocalEngine& node = appliance->mutable_compute_node(0);
  for (const pdw::DsqlStep& step : dsql.steps) {
    if (step.source_distribution.is_control() ||
        step.sql.find("TEMP_ID") != std::string::npos) {
      continue;
    }
    {
      auto span = tracer->Begin("engine.step_compile", request);
      auto r = pdw::CompileQuery(node.catalog(), step.sql);
      if (!r.ok()) Die("step compile: " + r.status().ToString());
    }
    {
      auto span = tracer->Begin("engine.step_exec", request);
      auto r = node.ExecuteSql(step.sql);
      if (!r.ok()) Die("step exec: " + r.status().ToString());
    }
  }
  {
    auto span = tracer->Begin("engine.reference", request);
    auto r = appliance->ExecuteReference(sql);
    if (!r.ok()) Die("reference: " + r.status().ToString());
  }
}

/// Calls the layer probes on `statements` (cycling when there are few)
/// until `budget` seconds have passed, covering each at least once or at
/// least the first dozen.
void ProbeLayers(Appliance* appliance, const StatementSet& set,
                 const std::vector<int>& statements, double budget,
                 Tracer* tracer, uint64_t* next_request) {
  size_t minimum = std::min<size_t>(statements.size(), 12);
  double t0 = NowSeconds();
  for (size_t i = 0; !statements.empty(); ++i) {
    if (i >= minimum && NowSeconds() - t0 >= budget) break;
    ProbeStatement(appliance,
                   set.statements[static_cast<size_t>(
                                      statements[i % statements.size()])]
                       .sql,
                   tracer, (*next_request)++);
  }
}

/// Times DmsService::ExecutePipelined in isolation: every compute node's
/// producer reads its own fragment of `table`, and the move routes the
/// rows by `kind`. Repeats until enough samples; spans carry network bytes.
void ProbeDms(Appliance* appliance, const char* span_name,
              const std::string& table, pdw::DmsOpKind kind,
              std::vector<int> hash_ordinals, Tracer* tracer,
              uint64_t* next_request) {
  auto def = appliance->shell().GetTable(table);
  if (!def.ok()) Die("dms probe: " + def.status().ToString());
  pdw::DmsExecOptions options;
  for (const pdw::ColumnDef& col : (*def)->schema.columns()) {
    options.types.push_back(col.type);
  }
  double t0 = NowSeconds();
  for (int rep = 0; rep < 40; ++rep) {
    if (rep >= 5 && NowSeconds() - t0 >= 0.3) break;
    std::vector<pdw::DmsProducer> producers(kNodes + 1);
    for (int i = 0; i < kNodes; ++i) {
      producers[static_cast<size_t>(i)] =
          [appliance, i, &table]() -> pdw::Result<RowVector> {
        auto rows = appliance->compute_node(i).GetRows(table);
        if (!rows.ok()) return rows.status();
        return RowVector(**rows);
      };
    }
    pdw::DmsRunMetrics metrics;
    uint64_t request = (*next_request)++;
    auto span = tracer->Begin(span_name, request);
    auto moved = appliance->dms().ExecutePipelined(
        kind, std::move(producers), hash_ordinals, &metrics,
        &pdw::ThreadPool::Global(), options);
    span.set_value(metrics.network.bytes);
    span.End();
    if (!moved.ok()) Die("dms probe: " + moved.status().ToString());
  }
}

/// Times what the replay's spans cost, with both sides in one cache state:
/// each statement runs once to warm its plan, then once with the span
/// recorder on and once with it off, in alternating order so that drift
/// cancels. The session's result cache is off, so every run executes.
/// Appends every run to `out` and returns traced minus untraced ms per pair.
std::vector<double> MeasureTraceOverhead(Appliance* appliance,
                                         const StatementSet& set,
                                         const std::vector<int>& statements,
                                         double budget, Tracer* tracer,
                                         uint64_t* next_request,
                                         std::vector<Outcome>* out) {
  pdw::Session session =
      appliance->Connect(pdw::QueryOptions().WithResultCache(false));
  std::vector<double> diffs;
  size_t minimum = std::min<size_t>(statements.size(), 12);
  double t0 = NowSeconds();
  for (size_t i = 0; !statements.empty(); ++i) {
    if (i >= minimum && NowSeconds() - t0 >= budget) break;
    int id = statements[i % statements.size()];
    tracer->set_enabled(false);
    out->push_back(RunOne(&session, set, id, t0, -1, tracer, (*next_request)++));
    double service[2] = {0, 0};  // tracer off, on
    bool ok = true;
    for (bool on : {i % 2 == 0, i % 2 != 0}) {
      tracer->set_enabled(on);
      out->push_back(
          RunOne(&session, set, id, t0, -1, tracer, (*next_request)++));
      service[on] = out->back().service();
      ok = ok && out->back().ok;
    }
    if (ok) diffs.push_back((service[1] - service[0]) * 1e3);
  }
  tracer->set_enabled(false);
  return diffs;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count and how the value was formed.
};

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string Note(const char* fmt, double a, double b = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

double MeanOf(const std::vector<const Outcome*>& v,
              double (*f)(const Outcome&)) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const Outcome* o : v) sum += f(*o);
  return sum / static_cast<double>(v.size());
}

/// Per span name: the mean over requests of the span's self time.
double MeanSelf(const std::map<std::string, std::map<uint64_t, double>>& self,
                const std::string& name) {
  auto it = self.find(name);
  if (it == self.end() || it->second.empty()) return 0;
  double sum = 0;
  for (const auto& [request, secs] : it->second) sum += secs;
  return sum / static_cast<double>(it->second.size());
}

/// Mean of the values spans of `name` carry.
double MeanValue(const Tracer& tracer, const std::string& name) {
  double sum = 0;
  int n = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / n;
}

/// Median MB/s over spans of `name` (value = bytes moved).
double MedianRate(const Tracer& tracer, const std::string& name) {
  std::vector<double> rates;
  for (const Span& s : tracer.spans()) {
    if (s.name == name && s.end > s.start) {
      rates.push_back(s.value / 1e6 / (s.end - s.start));
    }
  }
  return rates.empty() ? 0 : Distribution(rates).Median();
}

/// Timings of one block of the timed window.
struct BlockTimings {
  int id = 0;
  double p50 = 0;
  double p95 = 0;
  double qps = 0;      ///< Requests over their summed service time.
  double from = 0;     ///< Steady-clock span of the block's requests.
  double to = 0;
  double factor = 1;   ///< Host probe factor over [from, to].
};

/// Times every block of the window: `ok` are its completed requests and
/// `latency_ms` their latencies from due, in the same order.
std::vector<BlockTimings> TimeBlocks(const std::vector<const Outcome*>& ok,
                                     const std::vector<double>& latency_ms) {
  std::map<int, std::vector<size_t>> members;
  for (size_t i = 0; i < ok.size(); ++i) members[ok[i]->block].push_back(i);
  std::vector<BlockTimings> out;
  for (const auto& [block, ids] : members) {
    std::vector<double> lat;
    double service = 0;
    double from = ok[ids.front()]->sent_at, to = from;
    for (size_t i : ids) {
      lat.push_back(latency_ms[i]);
      service += ok[i]->service();
      from = std::min(from, ok[i]->sent_at);
      to = std::max(to, ok[i]->done_at);
    }
    Distribution d(lat);
    out.push_back({block, d.Median(), d.Percentile(0.95),
                   static_cast<double>(ids.size()) / service, from, to});
  }
  return out;
}

/// The blocks' timings in reference-host time: each scaled by the factor
/// of the host probe of `kind` over the block.
std::vector<BlockTimings> ScaleBlocks(std::vector<BlockTimings> blocks,
                                      const HostProbe& probe,
                                      HostProbe::Kind kind) {
  for (BlockTimings& b : blocks) {
    const double f = probe.FactorOver(b.from, b.to, kind);
    b.factor = f;
    b.p50 *= f;
    b.p95 *= f;
    b.qps /= f;
  }
  return blocks;
}

/// Every latency times the factor of its block.
std::vector<double> ScaleLatencies(const std::vector<const Outcome*>& ok,
                                   const std::vector<double>& latency_ms,
                                   const std::vector<BlockTimings>& blocks) {
  std::map<int, double> factor;
  for (const BlockTimings& b : blocks) factor[b.id] = b.factor;
  std::vector<double> out;
  for (size_t i = 0; i < ok.size(); ++i) {
    out.push_back(latency_ms[i] * factor[ok[i]->block]);
  }
  return out;
}

/// The geometric mean over templates of each template's median latency
/// over the whole window, each latency times its block's factor.
double TemplateGeoMean(const std::vector<const Outcome*>& ok,
                       const std::vector<double>& latency_ms,
                       const std::vector<BlockTimings>& blocks) {
  const std::vector<double> scaled = ScaleLatencies(ok, latency_ms, blocks);
  std::map<int, std::vector<double>> by_template;
  for (size_t i = 0; i < ok.size(); ++i) {
    by_template[ok[i]->tmpl].push_back(scaled[i]);
  }
  std::vector<double> medians;
  for (const auto& [tmpl, v] : by_template) {
    medians.push_back(Distribution(v).Median());
  }
  return GeoMean(medians);
}

/// The median over the blocks of one of their figures.
double OverBlocks(const std::vector<BlockTimings>& blocks,
                  double BlockTimings::*figure) {
  std::vector<double> v;
  for (const BlockTimings& b : blocks) v.push_back(b.*figure);
  return Distribution(v).Median();
}

/// The deterministic counts of the run: equal across runs with one seed on
/// the single-session workloads (the self-test checks exactly that).
struct Counts {
  double dms_mb_per_query = 0;
  double dsql_steps = 0;
  double memo_exprs = 0;
  double qerror_max = 0;
  size_t queries = 0;
};

/// Per-query means are taken per template and then averaged over the
/// templates, so a count does not move with how often the draw happened to
/// pick each template. Closed-loop rounds hold every template once, so there
/// this is the plain mean.
Counts CountOver(const std::vector<const Outcome*>& outcomes) {
  struct Sums {
    double mb = 0, steps = 0, exprs = 0, n = 0;
  };
  std::map<int, Sums> by_template;
  Counts c;
  for (const Outcome* o : outcomes) {
    Sums& s = by_template[o->tmpl];
    s.mb += o->net_bytes / 1e6;
    s.steps += o->steps;
    s.exprs += o->memo_exprs;
    s.n += 1;
    c.qerror_max = std::max(c.qerror_max, o->qerror_max);
  }
  c.queries = outcomes.size();
  for (const auto& [tmpl, s] : by_template) {
    double share = 1.0 / (s.n * static_cast<double>(by_template.size()));
    c.dms_mb_per_query += s.mb * share;
    c.dsql_steps += s.steps * share;
    c.memo_exprs += s.exprs * share;
  }
  return c;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  const StatementSet set = spec->statements();

  Tracer tracer;
  uint64_t next_request = 1;

  // 1. Setup: the appliance the run uses, and its resident memory. This
  // setup also pays the process's cold start; setup_s is measured by the
  // setup batches at the end of the run.
  double cold_setup_s = 0;
  std::unique_ptr<Appliance> appliance = Setup(spec->scale, &cold_setup_s);
  const double rss_mb = ResidentMb();
  HostProbe probe;

  // 2. Untimed warm-up, so lazy set-up and cache fill are not measured.
  std::vector<Outcome> warmup;
  pdw::Session session = appliance->Connect(SessionOptions(*spec));
  uint64_t warm_request = 0;
  if (spec->open_loop) {
    auto plan = DashboardPlan(*spec, set, args.seed, 100, 1.0);
    warmup = RunOpenLoop(appliance.get(), *spec, set, plan, 10, &tracer,
                         &warm_request);
  } else {
    // The suite's own fixed-parameter statements warm the code paths;
    // adhoc_small then starts from an empty plan cache, as its every
    // statement is new.
    StatementSet suite = ReportStatements();
    std::vector<int> all;
    for (size_t i = 0; i < suite.statements.size(); ++i) {
      all.push_back(static_cast<int>(i));
    }
    RunSequence(&session, suite, all, NowSeconds(), &tracer, &warm_request,
                &warmup);
    if (set.statements.size() > suite.statements.size()) {
      appliance->plan_cache().Clear();
    }
  }
  for (const Outcome& o : warmup) {
    if (!o.ok) Die("warm-up query failed: " + o.error);
  }

  // 3. The timed window, tracing off.
  const pdw::PlanCache::Stats plan0 = appliance->plan_cache().stats();
  const pdw::ResultCache::Stats result0 = appliance->result_cache().stats();
  std::vector<Outcome> window;
  double window_seconds = 0;
  int rounds = 0;
  std::vector<std::vector<Arrival>> plan;
  if (spec->open_loop) {
    plan = DashboardPlan(*spec, set, args.seed, 10, args.seconds);
    window = RunOpenLoop(appliance.get(), *spec, set, plan,
                         3 * args.seconds + 10, &tracer, &next_request,
                         &probe);
    for (Outcome& o : window) {
      window_seconds = std::max(window_seconds, o.done);
      o.block = static_cast<int>(o.due / kOpenBlockSeconds);
    }
  } else {
    RoundStream stream(set, args.seed);
    probe.Sample();
    double origin = NowSeconds();
    while (rounds < spec->min_rounds || NowSeconds() - origin < args.seconds ||
           rounds % spec->block_rounds != 0) {
      const size_t first = window.size();
      RunSequence(&session, set, stream.NextRound(), origin, &tracer,
                  &next_request, &window, &probe);
      for (size_t i = first; i < window.size(); ++i) {
        window[i].block = rounds / spec->block_rounds;
      }
      ++rounds;
    }
    window_seconds = NowSeconds() - origin;
  }
  const pdw::PlanCache::Stats plan1 = appliance->plan_cache().stats();
  const pdw::ResultCache::Stats result1 = appliance->result_cache().stats();

  // 4. Traced pass: replay the window's first traced_seconds with spans
  // on, then probe every layer on the statements the replay sent for as
  // long again, then time the spans' own cost for as long again.
  const double traced_seconds = std::min(args.seconds / 2, 5.0);
  std::vector<Outcome> replay, paired;
  std::vector<double> overhead_ms;
  pdw::PlanCache::Stats plan_r0{}, plan_r1{};
  pdw::ResultCache::Stats result_r0{}, result_r1{};
  if (args.trace) {
    tracer.set_enabled(true);
    plan_r0 = appliance->plan_cache().stats();
    result_r0 = appliance->result_cache().stats();
    if (spec->open_loop) {
      for (auto& arrivals : plan) {
        std::erase_if(arrivals, [&](const Arrival& a) {
          return a.due >= traced_seconds;
        });
      }
      replay = RunOpenLoop(appliance.get(), *spec, set, plan,
                           3 * traced_seconds + 10, &tracer, &next_request);
    } else {
      std::vector<int> ids;
      for (const Outcome& o : window) {
        if (o.sent >= traced_seconds && !ids.empty()) break;
        ids.push_back(o.statement);
      }
      RunSequence(&session, set, ids, NowSeconds(), &tracer, &next_request,
                  &replay);
    }
    plan_r1 = appliance->plan_cache().stats();
    result_r1 = appliance->result_cache().stats();
    std::vector<int> distinct;
    std::set<int> seen;
    for (const Outcome& o : replay) {
      if (seen.insert(o.statement).second) distinct.push_back(o.statement);
    }
    ProbeDms(appliance.get(), "dms.shuffle", "lineitem",
             pdw::DmsOpKind::kShuffle, {1}, &tracer, &next_request);
    ProbeDms(appliance.get(), "dms.broadcast", "customer",
             pdw::DmsOpKind::kBroadcastMove, {}, &tracer, &next_request);
    ProbeLayers(appliance.get(), set, distinct, traced_seconds, &tracer,
                &next_request);
    overhead_ms = MeasureTraceOverhead(appliance.get(), set, distinct,
                                       traced_seconds, &tracer, &next_request,
                                       &paired);
  }

  // 5. Correctness gate, outside the timed windows. Dropped requests were
  // never sent: they fail the run's validity, not its correctness.
  std::vector<Outcome*> all;
  for (auto* outcomes : {&window, &replay, &paired}) {
    for (Outcome& o : *outcomes) all.push_back(&o);
  }
  const int wrong = VerifyAgainstReference(appliance.get(), set, all);
  const size_t dropped = static_cast<size_t>(std::count_if(
      all.begin(), all.end(), [](const Outcome* o) { return o->dropped; }));
  const size_t attempted = all.size();
  const size_t failed = static_cast<size_t>(wrong) + dropped;

  // 6. With the run's appliance gone: the setup batches behind setup_s, or
  // in the traced pass one probed load of the write path.
  appliance.reset();
  std::vector<double> setup_seconds, setup_raw;
  if (args.trace) {
    tracer.set_enabled(true);
    ProbeSetup(spec->scale, &tracer, next_request++);
    tracer.set_enabled(false);
  } else {
    // Each batch is scaled by the host's compute speed around it: samples
    // right before and after it, and between its setups.
    for (int batch = 0; batch < spec->setup_batches; ++batch) {
      const double from = NowSeconds();
      for (int k = 0; k < 3; ++k) probe.Sample();
      double total = 0;
      for (int k = 0; k < spec->setup_batch; ++k) {
        double secs = 0;
        Setup(spec->scale, &secs);
        total += secs;
        probe.MaybeSample();
      }
      for (int k = 0; k < 3; ++k) probe.Sample();
      const double mean = total / spec->setup_batch;
      setup_raw.push_back(mean);
      setup_seconds.push_back(
          mean * probe.FactorOver(from, NowSeconds(), HostProbe::kCompute));
    }
  }

  // 7. Metrics.
  std::vector<const Outcome*> ok;
  for (const Outcome& o : window) {
    if (o.ok) ok.push_back(&o);
  }
  if (ok.empty()) Die("no request of the timed window completed");
  // Closed-loop requests are due when sent, so one ledger serves both loops.
  OpenLoopLedger ledger;
  for (const Outcome* o : ok) ledger.Add(o->due, o->sent, o->done);
  std::vector<double> latency_ms = ledger.LatenciesFromDue();
  for (double& ms : latency_ms) ms *= 1e3;
  Distribution latency(latency_ms);
  // Each timing is taken per block of the window (one to two seconds of
  // requests), scaled by the host probe over that block, and reported as
  // the median over the blocks (host_probe.h says why).
  const std::vector<BlockTimings> raw_blocks = TimeBlocks(ok, latency_ms);
  const std::vector<BlockTimings> blocks =
      ScaleBlocks(raw_blocks, probe, spec->scale_by);
  const double n_blocks = static_cast<double>(blocks.size());
  std::vector<const Outcome*> counted;
  if (spec->open_loop) {
    for (const Outcome* o : ok) {
      if (!o->result_cache_hit) counted.push_back(o);
    }
  } else {
    size_t n = static_cast<size_t>(spec->count_rounds) *
               set.template_names.size();
    for (size_t i = 0; i < std::min(n, ok.size()); ++i) counted.push_back(ok[i]);
  }
  const Counts counts = CountOver(counted);

  std::printf("workload %s: seed %llu, TPC-H scale %g on %d nodes, %d "
              "session(s), %s loop",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->scale, kNodes, spec->sessions,
              spec->open_loop ? "open" : "closed");
  if (spec->open_loop) std::printf(" at %g q/s offered", spec->offered_qps);
  std::printf(", %.2f s window\n", window_seconds);
  std::printf("  operations: attempted %zu, ok %zu, failed %zu (%d wrong, "
              "%zu dropped)\n",
              attempted, attempted - failed, failed, wrong, dropped);
  std::printf("  plan cache: %llu hits, %llu misses; result cache: %llu hits, "
              "%llu misses (timed window)\n",
              static_cast<unsigned long long>(plan1.hits - plan0.hits),
              static_cast<unsigned long long>(plan1.misses - plan0.misses),
              static_cast<unsigned long long>(result1.hits - result0.hits),
              static_cast<unsigned long long>(result1.misses - result0.misses));

  // An open-loop run is a valid sample only when it measured the system
  // rather than a queue: its backlog stayed steady and it dropped no
  // request. An invalid run exits with code 3. A p95 over the latency limit
  // is a verdict on the system at this rate, not on the run.
  bool valid = true;
  if (spec->open_loop) {
    const bool grew = ledger.BacklogGrows();
    const bool limit_met =
        latency.Percentile(0.95) <= spec->latency_limit_ms;
    valid = !grew && dropped == 0;
    Distribution late(ledger.Lateness());
    std::printf("  generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f "
                "ms; backlog %s; %zu dropped\n",
                late.Percentile(0.5) * 1e3, late.Percentile(0.99) * 1e3,
                late.Percentile(1.0) * 1e3, grew ? "GREW" : "steady", dropped);
    std::printf("  latency limit: p95 <= %g ms %s; run %s\n",
                spec->latency_limit_ms, limit_met ? "met" : "MISSED",
                valid ? "valid" : "INVALID (offered rate beyond capacity)");
  }

  std::vector<Metric> metrics;
  const double n_ok = static_cast<double>(ok.size());
  if (!args.trace) {
    const std::string per_block =
        Note("n=%g in %g blocks; median of the blocks' scaled", n_ok,
             n_blocks);
    metrics.push_back(
        {"setup_s", Distribution(setup_seconds).Median(), "s",
         Note("median of %g batches, each the scaled mean of %g setups",
              static_cast<double>(setup_seconds.size()),
              static_cast<double>(spec->setup_batch))});
    metrics.push_back({"rss_mb", rss_mb, "MB", "resident after setup"});
    metrics.push_back(
        spec->open_loop
            ? Metric{"qps", n_ok / window_seconds, "1/s",
                     Note("%g queries in %.2f s (achieved rate)", n_ok,
                          window_seconds)}
            : Metric{"qps", OverBlocks(blocks, &BlockTimings::qps), "1/s",
                     per_block + " queries per service second"});
    metrics.push_back({"latency_ms.p50", OverBlocks(blocks, &BlockTimings::p50),
                       "ms", per_block + " p50"});
    metrics.push_back({"latency_ms.p95", OverBlocks(blocks, &BlockTimings::p95),
                       "ms", per_block + " p95"});
    // A block holds too few requests of each template for a steady
    // median, so the geometric mean pools the window's scaled latencies.
    metrics.push_back({"latency_ms.geomean",
                       TemplateGeoMean(ok, latency_ms, blocks), "ms",
                       Note("n=%g; geomean over templates of the median of "
                            "each template's latencies, scaled per block",
                            n_ok)});
    metrics.push_back({"dms_mb_per_query", counts.dms_mb_per_query, "MB",
                       Note(spec->open_loop
                                ? "over %g executed (not result-cache) queries"
                                : "over the first %g queries",
                            static_cast<double>(counts.queries))});
    for (const Metric& m : metrics) PrintMetric(m);
    std::printf("  host probe: %zu samples; wake median %.1f us, reference "
                "%.1f; compute median %.1f us, reference %.1f; timings "
                "scaled by %s\n",
                probe.samples(), probe.MedianSeconds(HostProbe::kWake) * 1e6,
                HostProbe::kReferenceSeconds[HostProbe::kWake] * 1e6,
                probe.MedianSeconds(HostProbe::kCompute) * 1e6,
                HostProbe::kReferenceSeconds[HostProbe::kCompute] * 1e6,
                spec->scale_by == HostProbe::kWake ? "wake" : "compute");
    std::printf("  unscaled: setup %.6g s; blocks' median qps %.6g, p50 %.6g "
                "ms, p95 %.6g ms, geomean %.6g ms; whole window p50 %.6g ms, "
                "p95 %.6g ms\n",
                Distribution(setup_raw).Median(),
                OverBlocks(raw_blocks, &BlockTimings::qps),
                OverBlocks(raw_blocks, &BlockTimings::p50),
                OverBlocks(raw_blocks, &BlockTimings::p95),
                TemplateGeoMean(ok, latency_ms, raw_blocks),
                latency.Percentile(0.5), latency.Percentile(0.95));
    std::printf("  setup batches (scaled s per setup):");
    for (double secs : setup_seconds) std::printf(" %.4f", secs);
    std::printf("; cold first setup %.4f unscaled\n", cold_setup_s);
    // A block holds too few requests for a p99, so it is taken over the
    // whole window, each latency scaled by its block's factor.
    const Distribution scaled(ScaleLatencies(ok, latency_ms, blocks));
    if (auto p99 = scaled.Supported(0.99)) {
      PrintMetric({"latency_ms.p99", *p99, "ms",
                   Note("n=%g, %g beyond; over the window, scaled per block",
                        n_ok, static_cast<double>(scaled.Beyond(0.99)))});
    } else {
      std::printf("  %-32s not reported: %zu samples beyond it, 10 needed\n",
                  "latency_ms.p99", scaled.Beyond(0.99));
    }
  } else {
    auto self = tracer.SelfSeconds();
    std::vector<const Outcome*> rok;
    for (const Outcome& o : replay) {
      if (o.ok) rok.push_back(&o);
    }
    auto mean_ms = [&](double (*f)(const Outcome&)) {
      return MeanOf(rok, f) * 1e3;
    };
    double dms_steps = 0, follows = 0;
    std::vector<double> skews;
    for (const Outcome* o : rok) {
      dms_steps += o->dms_steps;
      follows += o->follows;
      skews.insert(skews.end(), o->node_skews.begin(), o->node_skews.end());
    }
    auto ratio = [](double hits, double misses) {
      return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    const std::string probes = Note("mean over %g probed queries",
                                    static_cast<double>(self["probe"].size()));
    const std::string replays = Note("mean over %g replayed queries",
                                     static_cast<double>(rok.size()));
    const std::string setups = "one probed load of every table";
    const std::string counted_note = Note(
        "over %g queries of the timed window", static_cast<double>(counts.queries));
    metrics = {
        {"sql.parse_us", MeanSelf(self, "sql.parse") * 1e6, "us", probes},
        {"algebra.bind_us", MeanSelf(self, "algebra.bind") * 1e6, "us", probes},
        {"algebra.normalize_us", MeanSelf(self, "algebra.normalize") * 1e6, "us",
         probes},
        {"optimizer.memo_us", MeanSelf(self, "optimizer.memo") * 1e6, "us", probes},
        {"optimizer.memo_exprs", counts.memo_exprs, "count", counted_note},
        {"optimizer.qerror_max", counts.qerror_max, "ratio", counted_note},
        {"xmlio.export_us", MeanSelf(self, "xmlio.export") * 1e6, "us", probes},
        {"xmlio.import_us", MeanSelf(self, "xmlio.import") * 1e6, "us", probes},
        {"xmlio.bytes", MeanValue(tracer, "xmlio.export"), "bytes", probes},
        {"pdw.optimize_us", MeanSelf(self, "pdw.optimize") * 1e6, "us", probes},
        {"pdw.options_considered", MeanValue(tracer, "pdw.optimize"), "count",
         probes},
        {"pdw.baseline_us", MeanSelf(self, "pdw.baseline") * 1e6, "us", probes},
        {"pdw.dsql_gen_us", MeanSelf(self, "pdw.dsql_gen") * 1e6, "us", probes},
        {"pdw.dsql_steps", counts.dsql_steps, "count", counted_note},
        {"pdw.plan_cache_hit_ratio",
         ratio(static_cast<double>(plan_r1.hits - plan_r0.hits),
               static_cast<double>(plan_r1.misses - plan_r0.misses)),
         "ratio", "replay"},
        {"pdw.result_cache_hit_ratio",
         ratio(static_cast<double>(result_r1.hits - result_r0.hits),
               static_cast<double>(result_r1.misses - result_r0.misses)),
         "ratio", "replay"},
        {"appliance.compile_ms", mean_ms([](const Outcome& o) { return o.compile_s; }),
         "ms", replays},
        {"appliance.queue_ms", mean_ms([](const Outcome& o) { return o.queue_s; }),
         "ms", replays},
        {"appliance.step_ms", mean_ms([](const Outcome& o) { return o.step_s; }),
         "ms", replays},
        {"appliance.unattributed_ms", mean_ms([](const Outcome& o) {
           return o.service() - o.compile_s - o.queue_s - o.step_s;
         }),
         "ms", replays},
        {"appliance.shared_follow_ratio", dms_steps > 0 ? follows / dms_steps : 0,
         "ratio", Note("%g follows over %g DMS steps", follows, dms_steps)},
        {"appliance.load_s", MeanSelf(self, "appliance.load"), "s", setups},
        {"engine.node_sql_ms", mean_ms([](const Outcome& o) { return o.node_s; }),
         "ms", replays},
        {"engine.node_skew", skews.empty() ? 0 : Distribution(skews).Median(),
         "ratio", Note("median over %g steps", static_cast<double>(skews.size()))},
        {"engine.step_compile_us", MeanSelf(self, "engine.step_compile") * 1e6,
         "us", probes},
        {"engine.step_exec_ms", MeanSelf(self, "engine.step_exec") * 1e3, "ms",
         probes},
        {"engine.reference_ms", MeanSelf(self, "engine.reference") * 1e3, "ms",
         probes},
        {"dms.reader_ms", mean_ms([](const Outcome& o) { return o.reader_s; }),
         "ms", replays},
        {"dms.network_ms", mean_ms([](const Outcome& o) { return o.network_s; }),
         "ms", replays},
        {"dms.writer_ms", mean_ms([](const Outcome& o) { return o.writer_s; }),
         "ms", replays},
        {"dms.bulkcopy_ms", mean_ms([](const Outcome& o) { return o.bulkcopy_s; }),
         "ms", replays},
        {"dms.rows_moved", MeanOf(rok, [](const Outcome& o) {
           return o.rows_moved;
         }),
         "count", replays},
        {"dms.shuffle_mb_s", MedianRate(tracer, "dms.shuffle"), "MB/s",
         "lineitem shuffled on l_partkey"},
        {"dms.broadcast_mb_s", MedianRate(tracer, "dms.broadcast"), "MB/s",
         "customer broadcast"},
        {"tpch.generate_s", MeanSelf(self, "tpch.generate"), "s", setups},
        {"stats.refresh_s", MeanSelf(self, "stats.refresh"), "s", setups},
        {"trace.overhead_ms",
         overhead_ms.empty() ? 0 : Distribution(overhead_ms).Median(), "ms",
         Note("median of %g paired runs, traced minus untraced",
              static_cast<double>(overhead_ms.size()))},
    };
    for (const Metric& m : metrics) PrintMetric(m);
    if (!args.spans_path.empty()) {
      if (tracer.WriteJson(args.spans_path)) {
        std::printf("  spans: %zu written to %s\n", tracer.spans().size(),
                    args.spans_path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans_path.c_str());
      }
    }
  }
  std::printf("counts {\"queries\": %zu, \"dms_mb_per_query\": %.17g, "
              "\"pdw.dsql_steps\": %.17g, \"optimizer.memo_exprs\": %.17g, "
              "\"optimizer.qerror_max\": %.17g}\n",
              counts.queries, counts.dms_mb_per_query, counts.dsql_steps,
              counts.memo_exprs, counts.qerror_max);

  std::string json = "{\"correct\": ";
  json += wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (wrong > 0) return 1;
  return valid ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
