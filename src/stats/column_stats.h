#ifndef PDW_STATS_COLUMN_STATS_H_
#define PDW_STATS_COLUMN_STATS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/row.h"
#include "common/schema.h"
#include "stats/histogram.h"

namespace pdw {

/// Reads the value at (row, column) of the table being summarized, so one
/// statistics builder serves row and column storage alike.
using CellReader = std::function<Datum(size_t row, int column)>;

/// Statistics for one column: row/NDV/null counts, min/max, average width,
/// and an optional equi-height histogram for numeric domains.
struct ColumnStats {
  double row_count = 0;
  double distinct_count = 0;
  double null_count = 0;
  double avg_width = 8;
  Datum min_value;  ///< NULL when unknown.
  Datum max_value;
  Histogram histogram;  ///< Empty for VARCHAR columns.

  /// Computes stats for `column` over `rows`, with histograms for numeric
  /// types: the per-node "standard SQL Server mechanism", which
  /// TableStats::Build runs for every column.
  static ColumnStats FromRows(const RowVector& rows, int column,
                              TypeId type, int histogram_buckets = 32);

  /// Merges per-node local stats into global stats (paper §2.2). When
  /// `disjoint_values` is true (the column is the table's hash-distribution
  /// column), value sets are disjoint across nodes and NDV adds exactly;
  /// otherwise NDV is estimated between max(part) and sum(parts).
  static ColumnStats Merge(const std::vector<ColumnStats>& parts,
                           bool disjoint_values);

  /// Selectivity (0..1) of an equality predicate `col = constant`.
  double EqualsSelectivity(const Datum& value) const;

  /// Selectivity of a range predicate. Either bound may be NULL (open).
  double RangeSelectivity(const Datum& lo, bool lo_inclusive,
                          const Datum& hi, bool hi_inclusive) const;
};

/// Table-level statistics: row count plus a per-column map.
struct TableStats {
  double row_count = 0;
  double avg_row_width = 0;
  std::map<std::string, ColumnStats> columns;

  /// Computes the statistics of a table of `row_count` rows laid out as
  /// `schema`, reading each cell through `cell`: the average row width and,
  /// per column (keyed by lowercase name), what FromRows computes.
  static TableStats Build(size_t row_count, const Schema& schema,
                          const CellReader& cell, int histogram_buckets = 32);

  static TableStats Merge(const std::vector<TableStats>& parts,
                          const std::string& distribution_column);
};

}  // namespace pdw

#endif  // PDW_STATS_COLUMN_STATS_H_
