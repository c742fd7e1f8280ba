#include "pdw/plan_cache.h"

#include <cctype>

#include "common/fault.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "optimizer/memo.h"

namespace pdw {

std::string NormalizeSqlForPlanCache(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_literal = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_literal) {
      out.push_back(c);
      if (c == '\'') in_literal = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_literal = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string FingerprintCompilerOptions(const PdwCompilerOptions& o) {
  // %a renders doubles exactly (hex float), so two λ sets that differ in
  // any bit fingerprint differently.
  return StringFormat(
      "memo:%d,%d,%d,%d,%d,b%d|norm:%d,%d,%d,%d,%d,%d|"
      "pdw:%a,%a,%a,%a,%a,%a,h%d,p%d,%zu,t%d,r%d,%a,pa%d",
      o.memo.max_dp_relations, o.memo.expr_budget,
      o.memo.seed_distribution_aware ? 1 : 0,
      o.memo.enable_semijoin_to_join ? 1 : 0, o.memo.enumerate_joins ? 1 : 0,
      o.memo.beam_width,
      o.normalizer.fold_constants ? 1 : 0, o.normalizer.push_predicates ? 1 : 0,
      o.normalizer.transitive_closure ? 1 : 0,
      o.normalizer.detect_contradictions ? 1 : 0,
      o.normalizer.eliminate_redundant_joins ? 1 : 0,
      o.normalizer.prune_columns ? 1 : 0, o.pdw.cost_params.lambda_reader_direct,
      o.pdw.cost_params.lambda_reader_hash, o.pdw.cost_params.lambda_network,
      o.pdw.cost_params.lambda_writer, o.pdw.cost_params.lambda_bulkcopy,
      o.pdw.cost_params.lambda_preagg,
      static_cast<int>(o.pdw.hint), o.pdw.prune ? 1 : 0,
      o.pdw.max_options_per_group, o.pdw.enable_trim_move ? 1 : 0,
      o.pdw.relational_costs ? 1 : 0, o.pdw.relational_lambda,
      o.pdw.enable_preagg ? 1 : 0);
}

uint64_t TableVersionTracker::Version(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(ToLower(table));
  return it == versions_.end() ? 0 : it->second;
}

void TableVersionTracker::Bump(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  ++versions_[ToLower(table)];
}

bool TableVersionTracker::IsCurrent(
    const std::vector<std::pair<std::string, uint64_t>>& versions) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [table, version] : versions) {
    auto it = versions_.find(table);
    uint64_t current = it == versions_.end() ? 0 : it->second;
    if (current != version) return false;
  }
  return true;
}

PlanCache::PlanCache(size_t capacity,
                     std::shared_ptr<TableVersionTracker> versions)
    : capacity_(capacity),
      versions_(versions != nullptr ? std::move(versions)
                                    : std::make_shared<TableVersionTracker>()) {
}

uint64_t PlanCache::TableVersion(const std::string& table) const {
  return versions_->Version(table);
}

void PlanCache::BumpTableVersion(const std::string& table) {
  versions_->Bump(table);
}

std::optional<CachedDsqlPlan> PlanCache::Lookup(
    const std::string& normalized_sql, const std::string& options_fingerprint) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key(normalized_sql, options_fingerprint));
  if (it == index_.end()) {
    ++stats_.misses;
    reg.Count("plan_cache.miss");
    return std::nullopt;
  }
  if (!versions_->IsCurrent(it->second->plan.table_versions)) {
    // Stale statistics: drop the entry so it recompiles fresh.
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.misses;
    ++stats_.invalidations;
    reg.Count("plan_cache.miss");
    reg.Count("plan_cache.invalidation");
    reg.SetGauge("plan_cache.size", static_cast<double>(lru_.size()));
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
  ++stats_.hits;
  ++it->second->hits;
  reg.Count("plan_cache.hit");
  return it->second->plan;
}

void PlanCache::Insert(const std::string& normalized_sql,
                       const std::string& options_fingerprint,
                       CachedDsqlPlan plan) {
  if (capacity_ == 0) return;
  // An injected control-node failure while filling the cache degrades the
  // query to uncached execution — it must never fail the query itself.
  if (!fault::Check("plan_cache.fill").ok()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Key(normalized_sql, options_fingerprint);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(plan), /*hits=*/0});
    index_[std::move(key)] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
      reg.Count("plan_cache.eviction");
    }
  }
  ++stats_.insertions;
  reg.SetGauge("plan_cache.size", static_cast<double>(lru_.size()));
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  obs::MetricsRegistry::Global().SetGauge("plan_cache.size", 0);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<PlanCache::EntryInfo> PlanCache::ListEntries() const {
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
    info.num_steps = static_cast<int>(e.plan.dsql.steps.size());
    info.modeled_cost = e.plan.modeled_cost;
    for (const auto& [table, version] : e.plan.table_versions) {
      info.tables.push_back(table);
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace pdw
