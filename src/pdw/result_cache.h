#ifndef PDW_PDW_RESULT_CACHE_H_
#define PDW_PDW_RESULT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "pdw/plan_cache.h"

namespace pdw {

/// One finished query result as the control node retains it: the rows a
/// byte-identical re-execution would produce, plus the compile-side
/// annotations a cache hit must still report, plus the statistics versions
/// anchoring invalidation (same machinery as the plan cache).
struct CachedQueryResult {
  std::vector<std::string> column_names;
  RowVector rows;
  std::string plan_text;
  double modeled_cost = 0;
  std::vector<std::pair<std::string, uint64_t>> table_versions;
};

/// The control node's keyed result cache plus in-flight coalescing — the
/// degenerate-but-high-value case of GLADE-style shared work: two identical
/// queries running at once do the work once.
///
/// Keying mirrors the plan cache: (normalized SQL, compiler-options
/// fingerprint). Invalidation is stats-versioned through the shared
/// TableVersionTracker, so LoadRows / RefreshStatistics on any scanned
/// table drops dependent results exactly as it drops dependent plans.
///
/// Coalescing protocol (LookupOrJoin):
///  * LRU hit  -> the cached result is returned immediately.
///  * miss, no identical query in flight -> the caller becomes the
///    *leader*: it must execute the query and then call Publish (success)
///    or FailFlight (error) with the same key.
///  * miss, identical query in flight -> the caller becomes a *follower*
///    and blocks until the leader publishes; it receives a copy of the
///    leader's rows (byte-identical by construction). When the leader
///    fails, followers are released to retry LookupOrJoin — the first one
///    back becomes the new leader, so one cancelled or faulted leader
///    never poisons innocent concurrent sessions.
///  * a follower whose own query is cancelled abandons the wait with
///    kCancelled (Poke wakes it); the flight stays the leader's to resolve.
///
/// All methods are thread-safe. Counters mirror into the obs metrics
/// registry as result_cache.* (hit/miss/invalidation/coalesced/...).
class ResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;         ///< Includes invalidations.
    uint64_t invalidations = 0;  ///< Misses caused by stale statistics.
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t coalesced = 0;      ///< Follower waits served by a leader.
  };

  /// Introspection row of one cached result, as surfaced through the
  /// sys.dm_pdw_result_cache system view (MRU first).
  struct EntryInfo {
    std::string normalized_sql;
    std::string options_fingerprint;
    uint64_t hits = 0;
    int64_t rows = 0;
    double modeled_cost = 0;
    std::vector<std::string> tables;  ///< Invalidation anchors.
  };

  /// `versions` must be the same tracker the plan cache uses (the
  /// appliance's); null creates a private one for standalone tests.
  explicit ResultCache(size_t capacity = 64,
                       std::shared_ptr<TableVersionTracker> versions = nullptr);

  /// The coalescing entry point (see class comment). Returns the cached or
  /// leader-published result, or std::nullopt when the caller has become
  /// the leader and owns the execute-then-Publish/FailFlight obligation.
  /// `coalesced` (optional) is set when the result came from waiting on an
  /// in-flight leader rather than the LRU. `cancel` (optional) makes a
  /// follower's wait cooperative: once it flips, the call fails with
  /// kCancelled and the caller owes no Publish/FailFlight.
  Result<std::optional<CachedQueryResult>> LookupOrJoin(
      const std::string& normalized_sql,
      const std::string& options_fingerprint, bool* coalesced = nullptr,
      const std::atomic<bool>* cancel = nullptr);

  /// Plain lookup with no coalescing side effects (DMV/test use).
  std::optional<CachedQueryResult> Lookup(
      const std::string& normalized_sql,
      const std::string& options_fingerprint);

  /// Leader success: wakes followers with a copy of `result` and inserts
  /// it into the LRU (evicting the least recently used beyond capacity).
  void Publish(const std::string& normalized_sql,
               const std::string& options_fingerprint,
               CachedQueryResult result);

  /// Leader failure: wakes followers empty-handed so one of them retries
  /// as the new leader. The failed execution inserts nothing.
  void FailFlight(const std::string& normalized_sql,
                  const std::string& options_fingerprint);

  /// Wakes all followers to re-check their cancel flags (Appliance::Cancel).
  void Poke();

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  Stats stats() const;
  const std::shared_ptr<TableVersionTracker>& versions() const {
    return versions_;
  }

  /// Point-in-time copy of every cached entry, MRU first, for DMV queries.
  std::vector<EntryInfo> ListEntries() const;

 private:
  struct Entry {
    std::string key;
    CachedQueryResult result;
    uint64_t hits = 0;
  };

  /// One in-flight execution identical queries coalesce onto. Followers
  /// hold the shared_ptr, so a leader resolving (and erasing the map
  /// entry) never invalidates a waiter mid-wait.
  struct InFlight {
    bool done = false;
    bool ok = false;
    CachedQueryResult result;  ///< Valid when done && ok.
  };

  std::string Key(const std::string& normalized_sql,
                  const std::string& options_fingerprint) const {
    return options_fingerprint + "\n" + normalized_sql;
  }

  /// LRU lookup + stale eviction. Caller holds mu_. Does not count stats.
  std::optional<CachedQueryResult> LookupLocked(const std::string& key);

  mutable std::mutex mu_;
  std::condition_variable flight_cv_;
  size_t capacity_;
  std::shared_ptr<TableVersionTracker> versions_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::map<std::string, std::list<Entry>::iterator> index_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  Stats stats_;
};

}  // namespace pdw

#endif  // PDW_PDW_RESULT_CACHE_H_
