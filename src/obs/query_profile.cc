#include "obs/query_profile.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "obs/format.h"

namespace pdw::obs {

double StepProfile::MisestimateFactor() const {
  double est = std::max(1.0, estimated_rows);
  double act = std::max(1.0, actual_rows);
  return std::max(est / act, act / est);
}

std::string QueryProfile::ToText(double misestimate_threshold) const {
  std::string out;
  out += "EXPLAIN ANALYZE";
  if (query_id > 0) {
    out += StringFormat(" [query %llu]",
                        static_cast<unsigned long long>(query_id));
  }
  if (!sql.empty()) out += " " + sql;
  out += "\n";

  if (!compile_phases.empty()) {
    out += "compile:";
    for (const PhaseProfile& p : compile_phases) {
      out += " " + p.name + "=" + FormatSeconds(p.seconds);
    }
    out += "  total=" + FormatSeconds(compile_seconds);
    if (cache_hit) out += "  [plan cache hit]";
    out += "\n";
  }
  out += StringFormat(
      "optimizer: groups=%s options=%s kept=%s pruned=%s enforcers=%s "
      "memo_groups=%s memo_exprs=%s\n",
      FormatCount(optimizer.groups).c_str(),
      FormatCount(optimizer.options_considered).c_str(),
      FormatCount(optimizer.options_kept).c_str(),
      FormatCount(optimizer.options_pruned).c_str(),
      FormatCount(optimizer.enforcers_inserted).c_str(),
      FormatCount(optimizer.memo_groups).c_str(),
      FormatCount(optimizer.memo_exprs).c_str());
  if (optimizer.budget_exhausted) {
    out += "WARNING: join enumeration degraded (expression budget / "
           "max_dp_relations)";
    out += optimizer.beam_used ? " — beam search used\n"
                               : " — single seeded join order\n";
  }

  for (const StepProfile& s : steps) {
    out += StringFormat("DSQL step %d: %s", s.index, s.kind.c_str());
    if (!s.move_kind.empty()) out += " " + s.move_kind;
    if (!s.dest_table.empty()) out += " -> " + s.dest_table;
    if (s.retries > 0) out += StringFormat("  [retries=%d]", s.retries);
    out += "\n";
    out += StringFormat("  modeled cost %.6f   measured %s   compile %s",
                        s.estimated_cost,
                        FormatSeconds(s.measured_seconds).c_str(),
                        FormatSeconds(s.compile_seconds).c_str());
    if (s.kind == "DMS") {
      out += StringFormat("   temp insert %s",
                          FormatSeconds(s.temp_insert_seconds).c_str());
    }
    out += "\n";
    out += StringFormat("  est. rows %s   actual rows %s",
                        FormatCount(s.estimated_rows).c_str(),
                        FormatCount(s.actual_rows).c_str());
    double factor = s.MisestimateFactor();
    if (factor >= misestimate_threshold) {
      out += StringFormat("   [MISESTIMATE %.0fx]", factor);
    }
    out += "\n";
    if (s.kind == "DMS") {
      out += "  dms: " + FormatComponent("reader", s.reader.bytes,
                                         s.reader.seconds);
      out += " " + FormatComponent("network", s.network.bytes,
                                   s.network.seconds);
      out += " " + FormatComponent("writer", s.writer.bytes,
                                   s.writer.seconds);
      out += " " + FormatComponent("bulkcopy", s.bulkcopy.bytes,
                                   s.bulkcopy.seconds);
      out += StringFormat(" rows_moved=%s\n",
                          FormatCount(s.rows_moved).c_str());
      if (s.preagg) {
        double rows_in = s.preagg_rows_in_actual > 0 ? s.preagg_rows_in_actual
                                                     : s.preagg_rows_in;
        double rows_out = s.rows_moved > 0 ? s.rows_moved : s.estimated_rows;
        out += StringFormat("  preagg: rows_in=%s rows_out=%s reduction=%.1fx\n",
                            FormatCount(rows_in).c_str(),
                            FormatCount(rows_out).c_str(),
                            rows_in / std::max(1.0, rows_out));
      }
    }
    if (!s.node_seconds.empty()) {
      out += "  nodes:";
      for (const auto& [node, seconds] : s.node_seconds) {
        out += StringFormat(" n%d=%s", node, FormatSeconds(seconds).c_str());
      }
      out += "\n";
    }
    if (!s.operators.empty()) {
      out += "  operators (actuals summed over nodes):\n";
      for (const OperatorProfile& op : s.operators) {
        out.append(4 + static_cast<size_t>(op.depth) * 2, ' ');
        out += StringFormat("%s  rows=%s time=%s nodes=%d", op.name.c_str(),
                            FormatCount(op.actual_rows).c_str(),
                            FormatSeconds(op.seconds).c_str(), op.nodes);
        if (op.selectivity >= 0) {
          out += StringFormat(" sel=%.3f", op.selectivity);
        }
        out += "\n";
      }
    }
    if (!s.sql.empty()) out += "  " + s.sql + "\n";
  }
  out += StringFormat("total: modeled cost %.6f   measured %s\n", modeled_cost,
                      FormatSeconds(measured_seconds).c_str());
  return out;
}

namespace {

std::string ComponentJson(const char* name, const ComponentProfile& c) {
  return StringFormat("\"%s\":{\"bytes\":%s,\"seconds\":%s}", name,
                      JsonNumber(c.bytes).c_str(),
                      JsonNumber(c.seconds).c_str());
}

}  // namespace

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  out += "\"query_id\":" + JsonNumber(static_cast<double>(query_id));
  out += ",\"sql\":\"" + JsonEscape(sql) + "\"";
  out += ",\"compile_seconds\":" + JsonNumber(compile_seconds);
  out += ",\"modeled_cost\":" + JsonNumber(modeled_cost);
  out += ",\"measured_seconds\":" + JsonNumber(measured_seconds);
  out += std::string(",\"cache_hit\":") + (cache_hit ? "true" : "false");

  out += ",\"compile_phases\":{";
  for (size_t i = 0; i < compile_phases.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(compile_phases[i].name) +
           "\":" + JsonNumber(compile_phases[i].seconds);
  }
  out += "}";

  out += ",\"optimizer\":{";
  out += "\"groups\":" + JsonNumber(optimizer.groups);
  out += ",\"options_considered\":" + JsonNumber(optimizer.options_considered);
  out += ",\"options_kept\":" + JsonNumber(optimizer.options_kept);
  out += ",\"options_pruned\":" + JsonNumber(optimizer.options_pruned);
  out += ",\"enforcers_inserted\":" + JsonNumber(optimizer.enforcers_inserted);
  out += ",\"memo_groups\":" + JsonNumber(optimizer.memo_groups);
  out += ",\"memo_exprs\":" + JsonNumber(optimizer.memo_exprs);
  out += std::string(",\"budget_exhausted\":") +
         (optimizer.budget_exhausted ? "true" : "false");
  out += std::string(",\"beam_used\":") + (optimizer.beam_used ? "true" : "false");
  out += "}";

  out += ",\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepProfile& s = steps[i];
    if (i > 0) out += ",";
    out += "{\"index\":" + JsonNumber(s.index);
    out += ",\"kind\":\"" + JsonEscape(s.kind) + "\"";
    if (!s.move_kind.empty()) {
      out += ",\"move_kind\":\"" + JsonEscape(s.move_kind) + "\"";
    }
    if (!s.dest_table.empty()) {
      out += ",\"dest_table\":\"" + JsonEscape(s.dest_table) + "\"";
    }
    out += ",\"estimated_rows\":" + JsonNumber(s.estimated_rows);
    out += ",\"actual_rows\":" + JsonNumber(s.actual_rows);
    out += ",\"estimated_cost\":" + JsonNumber(s.estimated_cost);
    out += ",\"measured_seconds\":" + JsonNumber(s.measured_seconds);
    out += ",\"compile_seconds\":" + JsonNumber(s.compile_seconds);
    out += ",\"temp_insert_seconds\":" + JsonNumber(s.temp_insert_seconds);
    out += ",\"retries\":" + JsonNumber(s.retries);
    out += ",\"misestimate_factor\":" + JsonNumber(s.MisestimateFactor());
    out += ",\"rows_moved\":" + JsonNumber(s.rows_moved);
    out += ",\"dms\":{" + ComponentJson("reader", s.reader) + "," +
           ComponentJson("network", s.network) + "," +
           ComponentJson("writer", s.writer) + "," +
           ComponentJson("bulkcopy", s.bulkcopy) + "}";
    if (s.preagg) {
      double rows_in = s.preagg_rows_in_actual > 0 ? s.preagg_rows_in_actual
                                                   : s.preagg_rows_in;
      double rows_out = s.rows_moved > 0 ? s.rows_moved : s.estimated_rows;
      out += ",\"preagg\":{\"rows_in\":" + JsonNumber(rows_in);
      out += ",\"rows_in_estimated\":" + JsonNumber(s.preagg_rows_in);
      out += ",\"rows_out\":" + JsonNumber(rows_out);
      out += ",\"reduction\":" + JsonNumber(rows_in / std::max(1.0, rows_out));
      out += "}";
    }
    out += ",\"node_seconds\":[";
    for (size_t j = 0; j < s.node_seconds.size(); ++j) {
      if (j > 0) out += ",";
      out += "{\"node\":" + JsonNumber(s.node_seconds[j].first) +
             ",\"seconds\":" + JsonNumber(s.node_seconds[j].second) + "}";
    }
    out += "]";
    out += ",\"operators\":[";
    for (size_t j = 0; j < s.operators.size(); ++j) {
      const OperatorProfile& op = s.operators[j];
      if (j > 0) out += ",";
      out += "{\"depth\":" + JsonNumber(op.depth);
      out += ",\"name\":\"" + JsonEscape(op.name) + "\"";
      out += ",\"estimated_rows\":" + JsonNumber(op.estimated_rows);
      out += ",\"actual_rows\":" + JsonNumber(op.actual_rows);
      out += ",\"seconds\":" + JsonNumber(op.seconds);
      out += ",\"nodes\":" + JsonNumber(op.nodes);
      if (op.selectivity >= 0) {
        out += ",\"selectivity\":" + JsonNumber(op.selectivity);
      }
      out += "}";
    }
    out += "]";
    out += ",\"sql\":\"" + JsonEscape(s.sql) + "\"";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace pdw::obs
