#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"

namespace pdw {

namespace {

// Numeric projection used by histograms; VARCHARs are not projected.
bool NumericValue(const Datum& d, double* out) {
  switch (d.type()) {
    case TypeId::kInt:
      *out = static_cast<double>(d.int_value());
      return true;
    case TypeId::kDouble:
      *out = d.double_value();
      return true;
    case TypeId::kDate:
      *out = static_cast<double>(d.date_value());
      return true;
    case TypeId::kBool:
      *out = d.bool_value() ? 1 : 0;
      return true;
    default:
      return false;
  }
}

/// The one column-statistics builder behind FromRows and TableStats::Build.
/// Adds the width of every cell, NULLs included, to `*cell_width_sum`.
ColumnStats BuildColumnStats(size_t row_count, int column,
                             const CellReader& cell, TypeId type,
                             int histogram_buckets, double* cell_width_sum) {
  ColumnStats s;
  s.row_count = static_cast<double>(row_count);
  std::unordered_set<size_t> distinct_hashes;
  std::vector<double> numeric;
  double width_sum = 0;
  for (size_t r = 0; r < row_count; ++r) {
    Datum d = cell(r, column);
    int width = d.Width();
    *cell_width_sum += width;
    if (d.is_null()) {
      s.null_count += 1;
      continue;
    }
    width_sum += width;
    distinct_hashes.insert(d.Hash());
    if (s.min_value.is_null() || d.Compare(s.min_value) < 0) s.min_value = d;
    if (s.max_value.is_null() || d.Compare(s.max_value) > 0) s.max_value = d;
    double v;
    if (NumericValue(d, &v)) numeric.push_back(v);
  }
  double non_null = s.row_count - s.null_count;
  s.distinct_count = static_cast<double>(distinct_hashes.size());
  s.avg_width = non_null > 0 ? width_sum / non_null
                             : DefaultTypeWidth(type);
  if (IsNumericType(type) && !numeric.empty()) {
    s.histogram = Histogram::Build(std::move(numeric), histogram_buckets);
  }
  return s;
}

}  // namespace

ColumnStats ColumnStats::FromRows(const RowVector& rows, int column,
                                  TypeId type, int histogram_buckets) {
  double cell_width_sum = 0;
  return BuildColumnStats(
      rows.size(), column,
      [&rows](size_t r, int c) { return rows[r][static_cast<size_t>(c)]; },
      type, histogram_buckets, &cell_width_sum);
}

ColumnStats ColumnStats::Merge(const std::vector<ColumnStats>& parts,
                               bool disjoint_values) {
  ColumnStats out;
  std::vector<Histogram> hists;
  double max_ndv = 0;
  double sum_ndv = 0;
  double width_weighted = 0;
  for (const ColumnStats& p : parts) {
    out.row_count += p.row_count;
    out.null_count += p.null_count;
    sum_ndv += p.distinct_count;
    max_ndv = std::max(max_ndv, p.distinct_count);
    width_weighted += p.avg_width * std::max(0.0, p.row_count - p.null_count);
    if (!p.min_value.is_null() &&
        (out.min_value.is_null() || p.min_value.Compare(out.min_value) < 0)) {
      out.min_value = p.min_value;
    }
    if (!p.max_value.is_null() &&
        (out.max_value.is_null() || p.max_value.Compare(out.max_value) > 0)) {
      out.max_value = p.max_value;
    }
    if (!p.histogram.empty()) hists.push_back(p.histogram);
  }
  double non_null = out.row_count - out.null_count;
  out.avg_width = non_null > 0 ? width_weighted / non_null : 8;
  if (disjoint_values) {
    out.distinct_count = sum_ndv;
  } else {
    // Values may repeat across nodes. True global NDV lies in
    // [max_ndv, sum_ndv]; use the geometric mean as the point estimate,
    // bounded by the non-null row count.
    out.distinct_count = std::sqrt(std::max(1.0, max_ndv) *
                                   std::max(1.0, sum_ndv));
    out.distinct_count = std::min(out.distinct_count, std::max(1.0, non_null));
  }
  if (!hists.empty()) {
    out.histogram = Histogram::Merge(hists, disjoint_values);
  }
  return out;
}

double ColumnStats::EqualsSelectivity(const Datum& value) const {
  if (row_count <= 0) return 0;
  double v;
  if (!histogram.empty() && NumericValue(value, &v)) {
    return std::clamp(histogram.EstimateEquals(v) / row_count, 0.0, 1.0);
  }
  if (distinct_count > 0) {
    return std::clamp(1.0 / distinct_count, 0.0, 1.0);
  }
  return 0.1;
}

double ColumnStats::RangeSelectivity(const Datum& lo, bool lo_inclusive,
                                     const Datum& hi, bool hi_inclusive) const {
  if (row_count <= 0) return 0;
  if (!histogram.empty()) {
    double lo_v, hi_v;
    double below_hi = histogram.total_rows();
    double below_lo = 0;
    if (!hi.is_null() && NumericValue(hi, &hi_v)) {
      below_hi = histogram.EstimateLess(hi_v, hi_inclusive);
    }
    if (!lo.is_null() && NumericValue(lo, &lo_v)) {
      below_lo = histogram.EstimateLess(lo_v, !lo_inclusive);
    }
    double rows = std::max(0.0, below_hi - below_lo);
    return std::clamp(rows / row_count, 0.0, 1.0);
  }
  // No histogram: use the classic 1/3 per open side heuristic.
  double sel = 1.0;
  if (!lo.is_null()) sel *= 1.0 / 3.0;
  if (!hi.is_null()) sel *= 1.0 / 3.0;
  return sel;
}

TableStats TableStats::Build(size_t row_count, const Schema& schema,
                             const CellReader& cell, int histogram_buckets) {
  TableStats stats;
  stats.row_count = static_cast<double>(row_count);
  // Cell widths are whole numbers, so this column-by-column sum is exact
  // and equals the sum of the row widths.
  double width = 0;
  for (int i = 0; i < schema.num_columns(); ++i) {
    const ColumnDef& col = schema.column(i);
    stats.columns[ToLower(col.name)] = BuildColumnStats(
        row_count, i, cell, col.type, histogram_buckets, &width);
  }
  stats.avg_row_width = row_count == 0 ? 0 : width / stats.row_count;
  return stats;
}

TableStats TableStats::Merge(const std::vector<TableStats>& parts,
                             const std::string& distribution_column) {
  TableStats out;
  double width_weighted = 0;
  std::unordered_set<std::string> col_names;
  for (const TableStats& p : parts) {
    out.row_count += p.row_count;
    width_weighted += p.avg_row_width * p.row_count;
    for (const auto& [name, cs] : p.columns) col_names.insert(name);
  }
  out.avg_row_width = out.row_count > 0 ? width_weighted / out.row_count : 0;
  for (const std::string& name : col_names) {
    std::vector<ColumnStats> col_parts;
    for (const TableStats& p : parts) {
      auto it = p.columns.find(name);
      if (it != p.columns.end()) col_parts.push_back(it->second);
    }
    out.columns[name] =
        ColumnStats::Merge(col_parts, name == distribution_column);
  }
  return out;
}

}  // namespace pdw
