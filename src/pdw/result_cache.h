#ifndef PDW_PDW_RESULT_CACHE_H_
#define PDW_PDW_RESULT_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/row.h"
#include "pdw/plan_cache.h"

namespace pdw {

/// One finished query result as the control node retains it: the rows a
/// byte-identical re-execution would produce, plus the compile-side
/// annotations a cache hit must still report, plus the statistics versions
/// anchoring invalidation (same machinery as the plan cache).
struct CachedQueryResult {
  static constexpr const char* kMetricPrefix = "result_cache";

  std::vector<std::string> column_names;
  RowVector rows;
  std::string plan_text;
  double modeled_cost = 0;
  std::vector<std::pair<std::string, uint64_t>> table_versions;
};

/// The control node's keyed result cache. Keying and stats-versioned
/// invalidation are the plan cache's, through the shared
/// TableVersionTracker, so LoadRows / RefreshStatistics on any scanned
/// table drops dependent results exactly as it drops dependent plans. Only
/// a query that executed to completion inserts; identical queries that
/// miss at the same time each execute and insert the same rows.
using ResultCache = StatsVersionedLru<CachedQueryResult>;

}  // namespace pdw

#endif  // PDW_PDW_RESULT_CACHE_H_
