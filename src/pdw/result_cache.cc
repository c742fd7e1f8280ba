#include "pdw/result_cache.h"

#include "obs/metrics.h"

namespace pdw {

ResultCache::ResultCache(size_t capacity,
                         std::shared_ptr<TableVersionTracker> versions)
    : capacity_(capacity),
      versions_(versions != nullptr ? std::move(versions)
                                    : std::make_shared<TableVersionTracker>()) {
}

std::optional<CachedQueryResult> ResultCache::LookupLocked(
    const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  if (!versions_->IsCurrent(it->second->result.table_versions)) {
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
    obs::MetricsRegistry::Global().Count("result_cache.invalidation");
    obs::MetricsRegistry::Global().SetGauge("result_cache.size",
                                            static_cast<double>(lru_.size()));
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
  ++it->second->hits;
  return it->second->result;
}

Result<std::optional<CachedQueryResult>> ResultCache::LookupOrJoin(
    const std::string& normalized_sql, const std::string& options_fingerprint,
    bool* coalesced, const std::atomic<bool>* cancel) {
  if (coalesced != nullptr) *coalesced = false;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::string key = Key(normalized_sql, options_fingerprint);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto hit = LookupLocked(key)) {
      ++stats_.hits;
      reg.Count("result_cache.hit");
      return hit;
    }
    auto flight = inflight_.find(key);
    if (flight == inflight_.end()) {
      // No identical query in flight: the caller leads. The entry stays
      // until the leader's Publish or FailFlight resolves it.
      inflight_[key] = std::make_shared<InFlight>();
      ++stats_.misses;
      reg.Count("result_cache.miss");
      return std::optional<CachedQueryResult>();
    }
    // Identical query already executing: wait for its leader instead of
    // running redundantly. The shared_ptr keeps the flight alive across
    // the leader erasing the map entry.
    std::shared_ptr<InFlight> f = flight->second;
    auto cancelled = [cancel] { return cancel != nullptr && cancel->load(); };
    flight_cv_.wait(lock, [&] { return f->done || cancelled(); });
    if (cancelled()) {
      // The flight is the leader's: only its Publish/FailFlight resolves it.
      return Status::Cancelled(
          "query cancelled while waiting on an identical in-flight query");
    }
    if (f->ok) {
      ++stats_.coalesced;
      reg.Count("result_cache.coalesced");
      if (coalesced != nullptr) *coalesced = true;
      return std::optional<CachedQueryResult>(f->result);
    }
    // Leader failed: loop back — the LRU may have been filled meanwhile by
    // a different key variant, or this caller becomes the new leader.
  }
}

std::optional<CachedQueryResult> ResultCache::Lookup(
    const std::string& normalized_sql,
    const std::string& options_fingerprint) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = LookupLocked(Key(normalized_sql, options_fingerprint));
  if (hit.has_value()) {
    ++stats_.hits;
    reg.Count("result_cache.hit");
  } else {
    ++stats_.misses;
    reg.Count("result_cache.miss");
  }
  return hit;
}

void ResultCache::Publish(const std::string& normalized_sql,
                          const std::string& options_fingerprint,
                          CachedQueryResult result) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::string key = Key(normalized_sql, options_fingerprint);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
      flight->second->result = result;  // copy: followers share these rows
      flight->second->ok = true;
      flight->second->done = true;
      inflight_.erase(flight);
    }
    if (capacity_ > 0) {
      auto it = index_.find(key);
      if (it != index_.end()) {
        it->second->result = std::move(result);
        lru_.splice(lru_.begin(), lru_, it->second);
      } else {
        lru_.push_front(Entry{key, std::move(result), /*hits=*/0});
        index_[std::move(key)] = lru_.begin();
        if (lru_.size() > capacity_) {
          index_.erase(lru_.back().key);
          lru_.pop_back();
          ++stats_.evictions;
          reg.Count("result_cache.eviction");
        }
      }
      ++stats_.insertions;
      reg.SetGauge("result_cache.size", static_cast<double>(lru_.size()));
    }
  }
  flight_cv_.notify_all();
}

void ResultCache::FailFlight(const std::string& normalized_sql,
                             const std::string& options_fingerprint) {
  std::string key = Key(normalized_sql, options_fingerprint);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto flight = inflight_.find(key);
    if (flight == inflight_.end()) return;
    flight->second->ok = false;
    flight->second->done = true;
    inflight_.erase(flight);
  }
  flight_cv_.notify_all();
}

void ResultCache::Poke() {
  std::lock_guard<std::mutex> lock(mu_);
  flight_cv_.notify_all();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  obs::MetricsRegistry::Global().SetGauge("result_cache.size", 0);
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ResultCache::EntryInfo> ResultCache::ListEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) {
    EntryInfo info;
    // The key is fingerprint + '\n' + normalized SQL (see Key()).
    size_t nl = e.key.find('\n');
    if (nl == std::string::npos) {
      info.normalized_sql = e.key;
    } else {
      info.options_fingerprint = e.key.substr(0, nl);
      info.normalized_sql = e.key.substr(nl + 1);
    }
    info.hits = e.hits;
    info.rows = static_cast<int64_t>(e.result.rows.size());
    info.modeled_cost = e.result.modeled_cost;
    for (const auto& [table, version] : e.result.table_versions) {
      info.tables.push_back(table);
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace pdw
