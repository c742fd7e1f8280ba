#include "pdw/plan_cache.h"

#include <cctype>

#include "common/string_util.h"

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
      "memo:%d,%d,%d,b%d|"
      "pdw:%a,%a,%a,%a,%a,%a,h%d,p%d,%zu,t%d,r%d,%a,pa%d",
      o.memo.max_dp_relations, o.memo.expr_budget,
      o.memo.seed_distribution_aware ? 1 : 0, o.memo.beam_width,
      o.pdw.cost_params.lambda_reader_direct,
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

}  // namespace pdw
