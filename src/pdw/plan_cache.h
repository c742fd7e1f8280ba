#ifndef PDW_PDW_PLAN_CACHE_H_
#define PDW_PDW_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/query_profile.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"

namespace pdw {

/// Per-table statistics versions — the invalidation anchor shared by every
/// keyed cache on the control node (plan cache, result cache). The
/// appliance bumps a table's version on LoadRows / RefreshStatistics; a
/// cache entry recording an older version for any table it depends on is
/// stale and must not be served.
///
/// Thread-safe; one instance per appliance, shared by its caches.
class TableVersionTracker {
 public:
  /// Current version of a table (0 until first bump). Case-insensitive.
  uint64_t Version(const std::string& table) const;
  void Bump(const std::string& table);

  /// True when every recorded (table, version) pair still matches.
  bool IsCurrent(
      const std::vector<std::pair<std::string, uint64_t>>& versions) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> versions_;  ///< Lowercase table -> version.
};

/// Canonical cache-key form of a query text: whitespace runs collapse to a
/// single space and everything *outside* single-quoted string literals is
/// lowercased (literal contents are data and must keep their case), so
/// reformatting a query still hits the cache.
std::string NormalizeSqlForPlanCache(const std::string& sql);

/// Serializes every compilation knob that can change the produced plan into
/// a stable string. Two option sets with different fingerprints always get
/// distinct cache entries.
std::string FingerprintCompilerOptions(const PdwCompilerOptions& options);

/// Everything the control node must retain to re-execute a compiled query
/// without re-running the parse→memo→enumeration pipeline.
struct CachedDsqlPlan {
  DsqlPlan dsql;
  std::vector<std::string> output_names;
  std::string plan_text;             ///< EXPLAIN rendering of the plan tree.
  double modeled_cost = 0;
  obs::OptimizerProfile optimizer;   ///< Search counters of the original run.
  /// Statistics version of every base table the plan scans, captured at
  /// compile time; a mismatch at lookup time invalidates the entry.
  std::vector<std::pair<std::string, uint64_t>> table_versions;
};

/// The control node's compiled-DSQL-plan cache: an LRU keyed by
/// (normalized SQL, compiler-options fingerprint) and invalidated through
/// per-table statistics versions, which the appliance bumps on LoadRows /
/// RefreshStatistics. A plan compiled against stale statistics is never
/// served — distribution-dependent plan choices (§3.2) hinge on those
/// statistics.
///
/// All methods are thread-safe; concurrent sessions share one cache.
/// Hit/miss/invalidation counts are mirrored into the global obs metrics
/// registry as plan_cache.* counters plus a plan_cache.size gauge.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;          ///< Includes invalidations.
    uint64_t invalidations = 0;   ///< Misses caused by stale statistics.
    uint64_t insertions = 0;
    uint64_t evictions = 0;       ///< LRU capacity evictions.
  };

  /// Introspection row of one cached plan, as surfaced through the
  /// sys.dm_pdw_plan_cache system view (MRU first).
  struct EntryInfo {
    std::string normalized_sql;
    std::string options_fingerprint;
    uint64_t hits = 0;          ///< Lookups served from this entry.
    int num_steps = 0;          ///< DSQL steps of the cached plan.
    double modeled_cost = 0;
    /// Base tables the plan reads (the invalidation anchors).
    std::vector<std::string> tables;
  };

  /// `versions` is the stats-version tracker invalidating this cache;
  /// null creates a private one (standalone/unit-test use). The appliance
  /// passes one shared tracker to both the plan and the result cache so a
  /// single LoadRows invalidates both.
  explicit PlanCache(size_t capacity = 128,
                     std::shared_ptr<TableVersionTracker> versions = nullptr);

  /// Current statistics version of a table (0 until first bump).
  uint64_t TableVersion(const std::string& table) const;
  /// Invalidates every cached plan reading `table` (lazily, at lookup).
  void BumpTableVersion(const std::string& table);
  const std::shared_ptr<TableVersionTracker>& versions() const {
    return versions_;
  }

  /// Returns the cached plan for the key if present and every recorded
  /// table version still matches; stale entries are evicted and counted as
  /// invalidations.
  std::optional<CachedDsqlPlan> Lookup(const std::string& normalized_sql,
                                       const std::string& options_fingerprint);

  /// Inserts (or replaces) the entry for the key, evicting the least
  /// recently used entry when over capacity.
  void Insert(const std::string& normalized_sql,
              const std::string& options_fingerprint, CachedDsqlPlan plan);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  Stats stats() const;

  /// Point-in-time copy of every cached entry in LRU order (most recently
  /// used first), for DMV queries.
  std::vector<EntryInfo> ListEntries() const;

 private:
  struct Entry {
    std::string key;
    CachedDsqlPlan plan;
    uint64_t hits = 0;
  };

  std::string Key(const std::string& normalized_sql,
                  const std::string& options_fingerprint) const {
    return options_fingerprint + "\n" + normalized_sql;
  }

  mutable std::mutex mu_;
  size_t capacity_;
  std::shared_ptr<TableVersionTracker> versions_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace pdw

#endif  // PDW_PDW_PLAN_CACHE_H_
