#include "pdw/step_fingerprint.h"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "plan/distribution.h"

namespace pdw {

namespace {

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  for (;;) {
    size_t hit = s.find(from, pos);
    if (hit == std::string::npos) {
      out.append(s, pos, std::string::npos);
      return out;
    }
    out.append(s, pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

/// Parses one bracketed identifier "[ident]" starting at (*pos) == '[';
/// on success stores the identifier and advances *pos past the ']'.
bool ParseBracketed(const std::string& s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '[') return false;
  size_t close = s.find(']', *pos + 1);
  if (close == std::string::npos) return false;
  *out = s.substr(*pos + 1, close - *pos - 1);
  *pos = close + 1;
  return true;
}

/// Rewrites every temp-table reference of `sql` (the canonical
/// [tempdb].[dbo].[TEMP_ID_k] form the SQL generator emits) to the
/// fingerprint digest of the step that produced it, and collects the base
/// tables ([<db>].[dbo].[<table>] references) the SQL scans. Returns false
/// when a temp reference has no known producer — such a step must not be
/// shared, since its input lineage cannot be proven.
bool SubstituteLineage(const std::string& sql,
                       const std::map<std::string, std::string>& producers,
                       std::string* out, std::set<std::string>* base_tables) {
  out->clear();
  out->reserve(sql.size());
  size_t i = 0;
  while (i < sql.size()) {
    if (sql[i] != '[') {
      *out += sql[i++];
      continue;
    }
    // Try the generator's three-part form [db].[schema].[name].
    size_t probe = i;
    std::string db, schema, name;
    bool three_part = ParseBracketed(sql, &probe, &db) &&
                      probe + 1 < sql.size() && sql[probe] == '.' &&
                      sql[probe + 1] == '[' &&
                      (++probe, ParseBracketed(sql, &probe, &schema)) &&
                      probe + 1 < sql.size() && sql[probe] == '.' &&
                      sql[probe + 1] == '[' &&
                      (++probe, ParseBracketed(sql, &probe, &name));
    if (!three_part) {
      *out += sql[i++];
      continue;
    }
    if (db == "tempdb" && name.rfind("TEMP_ID_", 0) == 0) {
      auto it = producers.find(name);
      if (it == producers.end()) return false;
      *out += "[tempdb].[dbo].[@" + it->second + "]";
    } else {
      base_tables->insert(ToLower(name));
      out->append(sql, i, probe - i);
    }
    i = probe;
  }
  return true;
}

/// Distribution rendered by *kind* only. ToString() embeds ColumnIds,
/// which are per-plan internal numbering — two plans compiling the same
/// step (or two UNION arms inside one plan) bind different ids for the
/// same column, and none of that changes the materialized bytes. What
/// does determine the bytes — which nodes run the source SQL and how rows
/// are routed — is the kind here plus move_kind and the hash ordinals.
std::string DistributionKindLabel(const DistributionProperty& dist) {
  switch (dist.kind) {
    case DistributionKind::kDistributed:
      return "distributed";
    case DistributionKind::kReplicated:
      return "replicated";
    case DistributionKind::kControl:
      return "control";
  }
  return "?";
}

}  // namespace

std::string FingerprintHex(const std::string& text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<StepFingerprint> ComputeStepFingerprints(
    const DsqlPlan& plan, uint64_t query_id,
    const TableVersionTracker& versions, const StepFingerprintOptions& opts) {
  const std::string uniquifier = "TEMP_ID_Q" + std::to_string(query_id) + "_";
  // Canonical dest name (TEMP_ID_k) -> digest of the step that fills it.
  std::map<std::string, std::string> producers;
  std::vector<StepFingerprint> out;
  out.reserve(plan.steps.size());
  for (const DsqlStep& step : plan.steps) {
    StepFingerprint fp;
    if (step.kind != DsqlStepKind::kDms) {
      out.push_back(std::move(fp));
      continue;
    }
    std::string canon_sql = ReplaceAll(step.sql, uniquifier, "TEMP_ID_");
    std::string canon_dest = ReplaceAll(step.dest_table, uniquifier, "TEMP_ID_");
    std::string substituted;
    std::set<std::string> base_tables;
    if (!SubstituteLineage(canon_sql, producers, &substituted, &base_tables)) {
      out.push_back(std::move(fp));  // unresolvable lineage: never share
      continue;
    }
    std::string text = "v1|eng:" + opts.engine_label + "|share:1";
    text += "|move:";
    text += DmsOpKindToString(step.move_kind);
    text += "|src:" + DistributionKindLabel(step.source_distribution);
    text += "|dst:" + DistributionKindLabel(step.dest_distribution);
    text += "|hash:";
    for (size_t i = 0; i < step.hash_column_ordinals.size(); ++i) {
      if (i > 0) text += ",";
      text += std::to_string(step.hash_column_ordinals[i]);
    }
    text += "|schema:";
    for (const ColumnDef& col : step.dest_schema.columns()) {
      text += col.name + ":" + std::to_string(static_cast<int>(col.type)) +
              ":" + (col.nullable ? "1" : "0") + ",";
    }
    text += "|preagg:";
    text += step.preagg ? "1" : "0";
    // std::set iteration keeps the table@version list sorted, so textually
    // different-but-equivalent FROM orders never split a fingerprint.
    text += "|tables:";
    for (const std::string& table : base_tables) {
      text += table + "@" + std::to_string(versions.Version(table)) + ",";
    }
    text += "|sql:" + substituted;
    fp.hex = FingerprintHex(text);
    fp.text = std::move(text);
    producers[canon_dest] = fp.hex;
    out.push_back(std::move(fp));
  }
  return out;
}

}  // namespace pdw
