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

#include "obs/metrics.h"
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

/// The control node's keyed cache, instantiated twice: the compiled-plan
/// cache (PlanCache, below) and the result cache (ResultCache,
/// pdw/result_cache.h). An LRU keyed by (normalized SQL, compiler-options
/// fingerprint) and invalidated through per-table statistics versions,
/// which the appliance bumps on LoadRows / RefreshStatistics: an entry
/// whose `Value::table_versions` no longer match the tracker is evicted at
/// lookup and never served.
///
/// All methods are thread-safe; concurrent sessions share one cache, and
/// its one mutex is its only synchronization. Counts are mirrored into the
/// global obs metrics registry as `<Value::kMetricPrefix>.hit` / `.miss` /
/// `.invalidation` / `.eviction` counters plus a `.size` gauge.
template <typename Value>
class StatsVersionedLru {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;          ///< Includes invalidations.
    uint64_t invalidations = 0;   ///< Misses caused by stale statistics.
    uint64_t insertions = 0;
    uint64_t evictions = 0;       ///< LRU capacity evictions.
  };

  /// `versions` is the stats-version tracker invalidating this cache;
  /// null creates a private one (standalone/unit-test use). The appliance
  /// passes one shared tracker to both caches so a single LoadRows
  /// invalidates both.
  explicit StatsVersionedLru(
      size_t capacity, std::shared_ptr<TableVersionTracker> versions = nullptr)
      : capacity_(capacity),
        versions_(versions != nullptr
                      ? std::move(versions)
                      : std::make_shared<TableVersionTracker>()) {}

  /// Returns the entry for the key if present and every recorded table
  /// version still matches; stale entries are evicted and counted as
  /// invalidations.
  std::optional<Value> Lookup(const std::string& normalized_sql,
                              const std::string& options_fingerprint) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(Key(normalized_sql, options_fingerprint));
    if (it == index_.end()) {
      ++stats_.misses;
      reg.Count(Metric("miss"));
      return std::nullopt;
    }
    if (!versions_->IsCurrent(it->second->value.table_versions)) {
      // Stale statistics: drop the entry so the caller recomputes it.
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.misses;
      ++stats_.invalidations;
      reg.Count(Metric("miss"));
      reg.Count(Metric("invalidation"));
      reg.SetGauge(Metric("size"), static_cast<double>(lru_.size()));
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
    ++stats_.hits;
    ++it->second->hits;
    reg.Count(Metric("hit"));
    return it->second->value;
  }

  /// Inserts (or replaces) the entry for the key, evicting the least
  /// recently used entry when over capacity.
  void Insert(const std::string& normalized_sql,
              const std::string& options_fingerprint, Value value) {
    if (capacity_ == 0) return;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    std::lock_guard<std::mutex> lock(mu_);
    std::string key = Key(normalized_sql, options_fingerprint);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, std::move(value), /*hits=*/0});
      index_[std::move(key)] = lru_.begin();
      if (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
        reg.Count(Metric("eviction"));
      }
    }
    ++stats_.insertions;
    reg.SetGauge(Metric("size"), static_cast<double>(lru_.size()));
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    obs::MetricsRegistry::Global().SetGauge(Metric("size"), 0);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Point-in-time walk for the DMVs: calls
  /// `visit(normalized_sql, options_fingerprint, hits, value)` for every
  /// entry, most recently used first. The walk holds the cache's lock so
  /// the view sees one consistent LRU without copying cached values;
  /// `visit` must not call back into the cache.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : lru_) {
      size_t nl = e.key.find('\n');  // see Key()
      visit(e.key.substr(nl + 1), e.key.substr(0, nl), e.hits, e.value);
    }
  }

 private:
  struct Entry {
    std::string key;
    Value value;
    uint64_t hits = 0;  ///< Lookups served from this entry.
  };

  /// The fingerprint never contains a newline, so the first one splits
  /// the key back into its two parts.
  static std::string Key(const std::string& normalized_sql,
                         const std::string& options_fingerprint) {
    return options_fingerprint + "\n" + normalized_sql;
  }

  static std::string Metric(const char* name) {
    return std::string(Value::kMetricPrefix) + "." + name;
  }

  mutable std::mutex mu_;
  size_t capacity_;
  std::shared_ptr<TableVersionTracker> versions_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::map<std::string, typename std::list<Entry>::iterator> index_;
  Stats stats_;
};

/// Everything the control node must retain to re-execute a compiled query
/// without re-running the parse→memo→enumeration pipeline.
struct CachedDsqlPlan {
  static constexpr const char* kMetricPrefix = "plan_cache";

  DsqlPlan dsql;
  std::vector<std::string> output_names;
  std::string plan_text;             ///< EXPLAIN rendering of the plan tree.
  double modeled_cost = 0;
  obs::OptimizerProfile optimizer;   ///< Search counters of the original run.
  /// Statistics version of every base table the plan scans, captured at
  /// compile time; a mismatch at lookup time invalidates the entry.
  std::vector<std::pair<std::string, uint64_t>> table_versions;
};

/// The control node's compiled-DSQL-plan cache. A plan compiled against
/// stale statistics is never served — distribution-dependent plan choices
/// (§3.2) hinge on those statistics.
using PlanCache = StatsVersionedLru<CachedDsqlPlan>;

}  // namespace pdw

#endif  // PDW_PDW_PLAN_CACHE_H_
