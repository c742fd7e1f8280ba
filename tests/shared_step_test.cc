// Differential sharing suite: sub-plan sharing across concurrent queries
// must be *byte-identical* to isolated execution — under both engines,
// leader faults, leader cancellation, and retry — and must never leak a
// temp table or a registry refcount.
//
// The deterministic anchor is intra-query sharing: a UNION ALL of two
// identical arms materializes the same shuffle twice, so with sharing on,
// arm two always follows arm one's published step — no thread timing
// involved. Cross-query tests then stretch the window with query-scoped
// delay faults on the leader and poll the registry before releasing the
// follower, so the rendezvous is exercised for real, not probabilistically.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "appliance/appliance.h"
#include "common/fault.h"
#include "common/retry.h"
#include "dms/dms_service.h"
#include "pdw/step_fingerprint.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

using fault::FaultKind;
using fault::FaultRegistry;
using fault::FaultSchedule;
using fault::FaultSpec;

constexpr int kNodes = 3;

// ---------------------------------------------------------------------------
// Fingerprint unit tests (no appliance): the identity must be invariant to
// per-execution temp numbering, chain through temp lineage, and split on
// anything that changes the materialized bytes.
// ---------------------------------------------------------------------------

DsqlPlan MakeTwoStepPlan(uint64_t qid) {
  std::string q = "TEMP_ID_Q" + std::to_string(qid) + "_";
  DsqlPlan plan;
  DsqlStep s0;
  s0.kind = DsqlStepKind::kDms;
  s0.sql = "SELECT o_custkey FROM [tpch].[dbo].[orders]";
  s0.dest_table = q + "0";
  s0.dest_schema.AddColumn({"o_custkey", TypeId::kInt, true});
  DsqlStep s1;
  s1.kind = DsqlStepKind::kDms;
  s1.sql = "SELECT o_custkey, COUNT(*) AS cnt FROM [tempdb].[dbo].[" + q +
           "0] GROUP BY o_custkey";
  s1.dest_table = q + "1";
  s1.dest_schema.AddColumn({"o_custkey", TypeId::kInt, true});
  s1.dest_schema.AddColumn({"cnt", TypeId::kInt, false});
  DsqlStep ret;
  ret.kind = DsqlStepKind::kReturn;
  ret.sql = "SELECT * FROM [tempdb].[dbo].[" + q + "1]";
  plan.steps = {s0, s1, ret};
  return plan;
}

TEST(StepFingerprintTest, QueryIdInvariantAndLineageChained) {
  TableVersionTracker versions;
  StepFingerprintOptions opts;
  opts.engine_label = "batch";
  auto f5 = ComputeStepFingerprints(MakeTwoStepPlan(5), 5, versions, opts);
  auto f9 = ComputeStepFingerprints(MakeTwoStepPlan(9), 9, versions, opts);
  ASSERT_EQ(f5.size(), 3u);
  EXPECT_TRUE(f5[0].shareable());
  EXPECT_TRUE(f5[1].shareable());
  EXPECT_FALSE(f5[2].shareable()) << "Return steps must never share";
  // Different query ids number their temps differently; the canonical
  // identity must not see that.
  EXPECT_EQ(f5[0].text, f9[0].text);
  EXPECT_EQ(f5[1].text, f9[1].text);
  EXPECT_NE(f5[0].text, f5[1].text);
  EXPECT_EQ(f5[0].hex, FingerprintHex(f5[0].text));
}

TEST(StepFingerprintTest, StatsBumpCascadesThroughLineage) {
  TableVersionTracker versions;
  StepFingerprintOptions opts;
  opts.engine_label = "batch";
  auto before = ComputeStepFingerprints(MakeTwoStepPlan(5), 5, versions, opts);
  versions.Bump("orders");
  auto after = ComputeStepFingerprints(MakeTwoStepPlan(5), 5, versions, opts);
  // Step 0 scans orders directly; step 1 scans only step 0's temp but must
  // split too, because its input lineage (step 0's digest) changed.
  EXPECT_NE(before[0].text, after[0].text);
  EXPECT_NE(before[1].text, after[1].text);
}

TEST(StepFingerprintTest, EngineAndCodecSplitFingerprints) {
  TableVersionTracker versions;
  StepFingerprintOptions batch{"batch"};
  StepFingerprintOptions row{"row"};
  auto a = ComputeStepFingerprints(MakeTwoStepPlan(5), 5, versions, batch);
  auto b = ComputeStepFingerprints(MakeTwoStepPlan(5), 5, versions, row);
  EXPECT_NE(a[0].text, b[0].text);
}

TEST(StepFingerprintTest, UnresolvedLineageIsNeverShareable) {
  TableVersionTracker versions;
  StepFingerprintOptions opts{"batch"};
  DsqlPlan plan;
  DsqlStep s;
  s.kind = DsqlStepKind::kDms;
  // References a temp no earlier step of this plan produced.
  s.sql = "SELECT * FROM [tempdb].[dbo].[TEMP_ID_Q5_7]";
  s.dest_table = "TEMP_ID_Q5_0";
  plan.steps = {s};
  auto f = ComputeStepFingerprints(plan, 5, versions, opts);
  EXPECT_FALSE(f[0].shareable());
}

// ---------------------------------------------------------------------------
// Appliance-level differential tests.
// ---------------------------------------------------------------------------

struct EngineConfig {
  EngineKind engine;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {EngineKind::kBatch, "batch"},
    {EngineKind::kRow, "row"},
};

QueryOptions ConfigOptions(const EngineConfig& cfg, bool share) {
  QueryOptions options;
  options.execute.engine.engine = cfg.engine;
  options.execute.share_steps = share;
  options.execute.retry.sleep_fn = [](double) {};
  return options;
}

/// Exact (ordered) row equality — execution is deterministic, so shared
/// and isolated runs must agree byte for byte, not just as multisets.
bool SameRows(const RowVector& a, const RowVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].Compare(b[i][j]) != 0) return false;
    }
  }
  return true;
}

class SharedStepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    appliance_ = new Appliance(Topology{kNodes});
    session_ = new Session(appliance_->Connect());
    ASSERT_TRUE(tpch::CreateTpchTables(appliance_).ok());
    tpch::TpchConfig cfg;
    cfg.scale = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(appliance_, cfg).ok());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete appliance_;
    appliance_ = nullptr;
  }
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override {
    FaultRegistry::Global().Reset();
    ExpectNoTempLitter("teardown");
    EXPECT_EQ(appliance_->shared_steps().active_entries(), 0u)
        << "registry must drain once every query finished";
  }

  static void ExpectNoTempLitter(const char* when) {
    for (int n = 0; n < kNodes; ++n) {
      for (const std::string& t :
           appliance_->compute_node(n).catalog().ListTables()) {
        EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
            << when << ": leaked " << t << " on node " << n;
      }
    }
    for (const std::string& t :
         appliance_->control_engine().catalog().ListTables()) {
      EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
          << when << ": leaked " << t << " on control";
    }
  }

  /// Blocks until the registry holds an entry in `state`, or 5s.
  static bool WaitForRegistryEntry(const std::string& state,
                                   int min_waiters = 0) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      for (const SharedStepRegistry::EntryInfo& e :
           appliance_->shared_steps().ListEntries()) {
        if (e.state == state && e.waiters >= min_waiters) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Query id of the in-flight request whose SQL contains `marker`, or 0.
  static uint64_t FindRunningQuery(const std::string& marker) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      for (const obs::RequestState& r : appliance_->requests().Snapshot()) {
        if (r.end_seconds < 0 && r.sql.find(marker) != std::string::npos) {
          return r.query_id;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0;
  }

  static Appliance* appliance_;
  static Session* session_;
};

Appliance* SharedStepTest::appliance_ = nullptr;
Session* SharedStepTest::session_ = nullptr;

/// The shared shuffle both query families need: customer ⋈ orders grouped
/// by nation. The ORDER BY variant is a *different* query (different
/// normalized text, different Return step) whose DMS steps are identical.
const char kAggSql[] =
    "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
    "WHERE c_custkey = o_custkey GROUP BY c_nationkey";
const char kAggSqlOrdered[] =
    "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
    "WHERE c_custkey = o_custkey GROUP BY c_nationkey ORDER BY c_nationkey";
/// Two identical arms: with sharing on, arm two's shuffle always follows
/// arm one's — the deterministic intra-query rendezvous.
const char kUnionSql[] =
    "SELECT c_nationkey FROM customer, orders WHERE c_custkey = o_custkey "
    "AND c_nationkey > 5 "
    "UNION ALL "
    "SELECT c_nationkey FROM customer, orders WHERE c_custkey = o_custkey "
    "AND c_nationkey > 5";

TEST_F(SharedStepTest, UnionArmsShareDeterministically) {
  for (const EngineConfig& cfg : kConfigs) {
    auto isolated = session_->Run(kUnionSql, ConfigOptions(cfg, false));
    ASSERT_TRUE(isolated.ok()) << cfg.name << ": " << isolated.status().ToString();
    EXPECT_EQ(isolated->shared_steps_followed, 0);
    auto shared = session_->Run(kUnionSql, ConfigOptions(cfg, true));
    ASSERT_TRUE(shared.ok()) << cfg.name << ": " << shared.status().ToString();
    EXPECT_GE(shared->shared_steps_followed, 1)
        << cfg.name << ": identical UNION ALL arms must rendezvous";
    EXPECT_GT(shared->shared_saved_bytes, 0) << cfg.name;
    EXPECT_TRUE(SameRows(isolated->rows, shared->rows))
        << cfg.name << ": shared execution diverged from isolated";
  }
}

TEST_F(SharedStepTest, SharedRoleSurfacesInProfileAndDmv) {
  auto shared = session_->Run(
      kUnionSql, ConfigOptions(kConfigs[0], true).WithPlanCache(false));
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  int leaders = 0, followers = 0;
  for (const obs::StepProfile& sp : shared->profile.steps) {
    if (sp.shared_role == "leader") ++leaders;
    if (sp.shared_role == "follower") {
      ++followers;
      EXPECT_GT(sp.shared_saved_bytes, 0);
    }
  }
  EXPECT_GE(leaders, 1);
  EXPECT_GE(followers, 1);
  EXPECT_NE(shared->explain_text.find("[shared: follower"), std::string::npos)
      << "EXPLAIN ANALYZE must render the sharing role";

  // The exec_steps DMV reports the same roles and saved bytes.
  auto dmv = session_->Run(
      "SELECT shared_role, saved_bytes FROM sys.dm_pdw_exec_steps "
      "WHERE request_id = " + std::to_string(shared->query_id));
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  int dmv_followers = 0;
  for (const Row& r : dmv->rows) {
    if (!r[0].is_null() && r[0].string_value() == "follower") {
      ++dmv_followers;
      EXPECT_GT(r[1].double_value(), 0);
    }
  }
  EXPECT_GE(dmv_followers, 1);
}

TEST_F(SharedStepTest, ConcurrentOverlappingQueriesShare) {
  const EngineConfig& cfg = kConfigs[0];
  // Isolated baselines (also pre-warms the plan cache, keeping the
  // follower's compile out of the rendezvous window).
  auto base_a = session_->Run(kAggSql, ConfigOptions(cfg, false));
  auto base_b = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, false));
  ASSERT_TRUE(base_a.ok()) << base_a.status().ToString();
  ASSERT_TRUE(base_b.ok()) << base_b.status().ToString();

  // Leader: every DMS network transfer of this one query is delayed, so
  // its shuffle stays "executing" long enough for the follower to join.
  QueryOptions leader_options = ConfigOptions(cfg, true);
  FaultSpec slow;
  slow.point = "dms.network";
  slow.query = 1;  // the arming query itself, not the concurrent follower
  slow.count = -1;
  slow.kind = FaultKind::kDelay;
  slow.delay_seconds = 0.05;
  leader_options.execute.faults = {slow};

  Result<ApplianceResult> leader_result = Status::Internal("not run");
  std::thread leader([&] {
    leader_result = session_->Run(kAggSql, leader_options);
  });
  ASSERT_TRUE(WaitForRegistryEntry("executing"))
      << "leader never registered an executing shared step";
  auto follower_result =
      session_->Run(kAggSqlOrdered, ConfigOptions(cfg, true));
  leader.join();

  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  ASSERT_TRUE(follower_result.ok()) << follower_result.status().ToString();
  EXPECT_GE(follower_result->shared_steps_followed, 1)
      << "overlapping non-identical queries must share the common shuffle";
  EXPECT_TRUE(SameRows(base_a->rows, leader_result->rows));
  EXPECT_TRUE(SameRows(base_b->rows, follower_result->rows))
      << "follower result diverged from isolated execution";
}

TEST_F(SharedStepTest, FaultedLeaderReleasesFollowers) {
  const EngineConfig& cfg = kConfigs[0];
  auto base_b = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, false));
  ASSERT_TRUE(base_b.ok()) << base_b.status().ToString();
  (void)session_->Run(kAggSql, ConfigOptions(cfg, false));  // warm plan cache

  // Leader: slow network (so the follower blocks on its flight), then a
  // permanent bulkcopy failure — the flight must fail, the follower must
  // re-lead. Both faults are armed process-wide: a query-scoped spec
  // (QueryOptions::faults with query 1) stops matching once the follower's
  // query begins, so the leader could finish before its fault fired. While
  // the follower waits only the leader moves data, so the delay slows only
  // the leader, and the one-shot failure, armed once the follower waits,
  // can only hit the leader.
  FaultRegistry& faults = FaultRegistry::Global();
  FaultSpec slow;
  slow.point = "dms.network";
  slow.count = -1;
  slow.kind = FaultKind::kDelay;
  slow.delay_seconds = 0.1;
  uint64_t slow_token = faults.Arm({slow});

  uint64_t failed_flights_before =
      appliance_->shared_steps().stats().failed_flights;
  Result<ApplianceResult> leader_result = Status::Internal("not run");
  std::thread leader([&] {
    leader_result = session_->Run(kAggSql, ConfigOptions(cfg, true));
  });
  ASSERT_TRUE(WaitForRegistryEntry("executing"));
  Result<ApplianceResult> follower_result = Status::Internal("not run");
  std::thread follower([&] {
    follower_result = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, true));
  });
  bool follower_waited = WaitForRegistryEntry("executing", 1);
  FaultSpec boom;
  boom.point = "dms.bulkcopy";
  boom.count = 1;
  boom.kind = FaultKind::kPermanentError;
  uint64_t boom_token = faults.Arm({boom});
  leader.join();
  faults.Disarm(slow_token);
  follower.join();
  faults.Disarm(boom_token);

  EXPECT_TRUE(follower_waited) << "follower never blocked on the leader";
  EXPECT_FALSE(leader_result.ok()) << "permanent fault must fail the leader";
  ASSERT_TRUE(follower_result.ok())
      << "released follower must execute independently: "
      << follower_result.status().ToString();
  EXPECT_TRUE(SameRows(base_b->rows, follower_result->rows));
  EXPECT_GE(appliance_->shared_steps().stats().failed_flights,
            failed_flights_before + 1);
}

TEST_F(SharedStepTest, CancelledLeaderReleasesFollowers) {
  const EngineConfig& cfg = kConfigs[0];
  // Distinct marker literal so FindRunningQuery targets the leader only.
  const std::string leader_sql = std::string(kAggSql) + " ORDER BY cnt";
  auto base_a = session_->Run(leader_sql, ConfigOptions(cfg, false));
  auto base_b = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, false));
  ASSERT_TRUE(base_a.ok());
  ASSERT_TRUE(base_b.ok());

  QueryOptions leader_options = ConfigOptions(cfg, true);
  FaultSpec slow;
  slow.point = "dms.network";
  slow.query = 1;
  slow.count = -1;
  slow.kind = FaultKind::kDelay;
  slow.delay_seconds = 0.05;
  leader_options.execute.faults = {slow};

  Result<ApplianceResult> leader_result = Status::Internal("not run");
  std::thread leader([&] {
    leader_result = session_->Run(leader_sql, leader_options);
  });
  ASSERT_TRUE(WaitForRegistryEntry("executing"));
  std::thread follower_thread;
  Result<ApplianceResult> follower_result = Status::Internal("not run");
  follower_thread = std::thread([&] {
    follower_result = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, true));
  });
  uint64_t leader_id = FindRunningQuery("order by cnt");
  ASSERT_NE(leader_id, 0u) << "leader request not visible in the registry";
  ASSERT_TRUE(session_->Cancel(leader_id).ok());
  leader.join();
  follower_thread.join();

  EXPECT_FALSE(leader_result.ok());
  EXPECT_EQ(leader_result.status().code(), StatusCode::kCancelled)
      << leader_result.status().ToString();
  ASSERT_TRUE(follower_result.ok())
      << "follower of a cancelled leader must recover: "
      << follower_result.status().ToString();
  EXPECT_TRUE(SameRows(base_b->rows, follower_result->rows));
}

TEST_F(SharedStepTest, CancelledFollowerAbandonsWait) {
  const EngineConfig& cfg = kConfigs[0];
  auto base_a = session_->Run(kAggSql, ConfigOptions(cfg, false));
  ASSERT_TRUE(base_a.ok()) << base_a.status().ToString();
  (void)session_->Run(kAggSqlOrdered, ConfigOptions(cfg, false));  // warm

  // Leader: process-wide slow network, so the follower blocks on its
  // flight (the waiting follower moves no data, so only the leader slows).
  FaultRegistry& faults = FaultRegistry::Global();
  FaultSpec slow;
  slow.point = "dms.network";
  slow.count = -1;
  slow.kind = FaultKind::kDelay;
  slow.delay_seconds = 0.1;
  uint64_t slow_token = faults.Arm({slow});

  uint64_t skips_before = appliance_->shared_steps().stats().cancel_skips;
  Result<ApplianceResult> leader_result = Status::Internal("not run");
  std::thread leader([&] {
    leader_result = session_->Run(kAggSql, ConfigOptions(cfg, true));
  });
  bool leader_executing = WaitForRegistryEntry("executing");
  Result<ApplianceResult> follower_result = Status::Internal("not run");
  std::thread follower([&] {
    follower_result = session_->Run(kAggSqlOrdered, ConfigOptions(cfg, true));
  });
  bool follower_waited = WaitForRegistryEntry("executing", 1);
  uint64_t follower_id = FindRunningQuery("order by c_nationkey");
  Status cancel_status = session_->Cancel(follower_id);
  follower.join();
  leader.join();
  faults.Disarm(slow_token);

  EXPECT_TRUE(leader_executing) << "leader never registered a shared step";
  EXPECT_TRUE(follower_waited) << "follower never blocked on the leader";
  ASSERT_NE(follower_id, 0u) << "follower request not visible in the registry";
  ASSERT_TRUE(cancel_status.ok()) << cancel_status.ToString();
  EXPECT_EQ(follower_result.status().code(), StatusCode::kCancelled)
      << follower_result.status().ToString();
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  EXPECT_TRUE(SameRows(base_a->rows, leader_result->rows))
      << "leader result diverged from isolated execution";
  EXPECT_EQ(appliance_->shared_steps().stats().cancel_skips, skips_before + 1);
  // TearDown checks the registry drained and no temp table leaked.
}

TEST_F(SharedStepTest, TransientLeaderRetryStillPublishes) {
  const EngineConfig& cfg = kConfigs[0];
  auto isolated = session_->Run(kUnionSql, ConfigOptions(cfg, false));
  ASSERT_TRUE(isolated.ok());

  // Arm one's shuffle fails transiently once, is retried while still
  // holding leadership, then publishes; arm two must still follow.
  QueryOptions options = ConfigOptions(cfg, true);
  FaultSpec blip;
  blip.point = "dms.network";
  blip.query = 1;
  blip.count = 1;
  blip.kind = FaultKind::kTransientError;
  options.execute.faults = {blip};

  auto shared = session_->Run(kUnionSql, options);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_GE(shared->shared_steps_followed, 1);
  bool retried = false;
  for (const obs::StepProfile& sp : shared->profile.steps) {
    if (sp.retries > 0) retried = true;
  }
  EXPECT_TRUE(retried) << "the transient fault should have forced a retry";
  EXPECT_TRUE(SameRows(isolated->rows, shared->rows));
}

/// The sharing fault points are best-effort degradations: a fault at the
/// rendezvous (wlm.share.join) or at publish (wlm.share.publish) must fall
/// back to private execution with byte-identical results — sharing faults
/// never fail queries.
TEST_F(SharedStepTest, ShareFaultPointsDegradeToIsolation) {
  auto isolated = session_->Run(kUnionSql, ConfigOptions(kConfigs[0], false));
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
  for (const char* point : {"wlm.share.join", "wlm.share.publish"}) {
    SCOPED_TRACE(point);
    for (FaultKind kind :
         {FaultKind::kTransientError, FaultKind::kPermanentError}) {
      QueryOptions options = ConfigOptions(kConfigs[0], true);
      FaultSpec spec;
      spec.point = point;
      spec.query = 1;
      spec.count = -1;  // every traversal: no arm may share through it
      spec.kind = kind;
      options.execute.faults = {spec};
      auto faulted = session_->Run(kUnionSql, options);
      ASSERT_TRUE(faulted.ok())
          << "sharing fault must not fail the query: "
          << faulted.status().ToString();
      EXPECT_EQ(faulted->shared_steps_followed, 0);
      EXPECT_TRUE(SameRows(isolated->rows, faulted->rows));
    }
  }
  ExpectNoTempLitter("after share-fault runs");
}

TEST_F(SharedStepTest, ShareKnobOffExecutesPrivately) {
  uint64_t leads_before = appliance_->shared_steps().stats().leads;
  auto off = session_->Run(kUnionSql,
                           ConfigOptions(kConfigs[0], false));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->shared_steps_followed, 0);
  EXPECT_EQ(off->shared_steps_led, 0);
  EXPECT_EQ(appliance_->shared_steps().stats().leads, leads_before)
      << "share_steps=false must never touch the registry";
}

TEST_F(SharedStepTest, SharedStepsDmvIsQueryable) {
  auto dmv = session_->Run(
      "SELECT fingerprint, state, refcount FROM sys.dm_pdw_shared_steps");
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  EXPECT_EQ(dmv->rows.size(), 0u) << "registry should be idle between tests";
}

/// Seeded N-thread storm of overlapping, non-identical TPC-H subqueries,
/// swept across both engines: every result must be
/// byte-identical to its isolated (share-off) baseline, at least one
/// shared execution must happen per config, and nothing may leak.
TEST_F(SharedStepTest, SeededStormMatchesIsolatedExecution) {
  const int kThreads = 8;
  const int kReps = 4;
  const std::vector<std::string> workload = {
      kAggSql,
      kAggSqlOrdered,
      kUnionSql,  // guarantees >=1 follow per config even without overlap
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey AND c_nationkey > 3 GROUP BY c_nationkey",
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey AND c_nationkey > 3 GROUP BY c_nationkey "
      "ORDER BY cnt, c_nationkey",
  };
  for (const EngineConfig& cfg : kConfigs) {
    // Isolated baselines, share off.
    std::vector<RowVector> baselines;
    for (const std::string& sql : workload) {
      auto base = session_->Run(sql, ConfigOptions(cfg, false));
      ASSERT_TRUE(base.ok()) << cfg.name << ": " << base.status().ToString();
      baselines.push_back(base->rows);
    }
    uint64_t follows_before = appliance_->shared_steps().stats().follows;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(20120520u + static_cast<uint64_t>(t));
        for (int rep = 0; rep < kReps; ++rep) {
          size_t q = (static_cast<size_t>(t) + static_cast<size_t>(rep) +
                      static_cast<size_t>(rng() % workload.size())) %
                     workload.size();
          auto run = session_->Run(workload[q], ConfigOptions(cfg, true));
          if (!run.ok()) {
            ++failures;
            continue;
          }
          if (!SameRows(baselines[q], run->rows)) ++mismatches;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0) << cfg.name;
    EXPECT_EQ(mismatches.load(), 0)
        << cfg.name << ": a shared run diverged from isolated execution";
    EXPECT_GT(appliance_->shared_steps().stats().follows, follows_before)
        << cfg.name << ": the storm never shared a single step";
    EXPECT_EQ(appliance_->shared_steps().active_entries(), 0u) << cfg.name;
    ExpectNoTempLitter(cfg.name);
  }
}

}  // namespace
}  // namespace pdw
