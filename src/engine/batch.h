#ifndef PDW_ENGINE_BATCH_H_
#define PDW_ENGINE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/row.h"
#include "common/types.h"

namespace pdw {

/// Indices of the active rows of a batch, in ascending row order. Fused
/// filter evaluation shrinks a selection vector in place instead of
/// copying survivors, so a scan→filter→filter chain touches each column
/// value once and materializes nothing until the pipeline's sink.
using SelVector = std::vector<int32_t>;

/// Physical storage class of a ColumnVector. Fixed-width SQL types share
/// the int64 plane (INT, DATE as epoch days, BOOL as 0/1); kVariant is the
/// escape hatch for columns whose runtime values diverge from the declared
/// type (e.g. a CASE mixing INT and DOUBLE branches) — those store whole
/// Datums and take the value-generic kernel paths.
enum class VecTag : uint8_t { kInt64, kDouble, kString, kVariant };

/// Storage class a declared type maps to.
VecTag VecTagForType(TypeId type);

/// One typed column of a batch: a value array plus a null bitmap (byte per
/// row; 1 = NULL). Null rows keep a default value slot so the value arrays
/// stay index-aligned with the bitmap. Appending a non-null Datum whose
/// runtime type differs from the declared type promotes the whole column
/// to kVariant storage, preserving exact values at the cost of the fast
/// kernels — correctness never depends on the declared type being right.
class ColumnVector {
 public:
  ColumnVector() : ColumnVector(TypeId::kInvalid) {}
  explicit ColumnVector(TypeId declared)
      : declared_(declared), tag_(VecTagForType(declared)) {}

  TypeId declared_type() const { return declared_; }
  VecTag tag() const { return tag_; }
  size_t size() const { return nulls_.size(); }
  bool empty() const { return nulls_.empty(); }

  void Reserve(size_t n);
  void Clear();

  bool IsNull(size_t i) const { return nulls_[i] != 0; }

  /// Reconstructs the Datum at `i` (exact round-trip of what was appended).
  Datum GetDatum(size_t i) const;

  /// Appends any Datum, promoting storage if its type does not match.
  void Append(const Datum& d);
  void AppendNull();

  /// Fast typed appends; the tag must match (callers on hot paths know it).
  void AppendI64(int64_t v) {
    nulls_.push_back(0);
    i64_.push_back(v);
  }
  void AppendF64(double v) {
    nulls_.push_back(0);
    f64_.push_back(v);
  }

  /// Appends row `i` of `src` (same declared type) to this vector.
  void AppendFrom(const ColumnVector& src, size_t i);

  /// Appends rows [begin, end) of `src` — a bulk vector splice when the
  /// storage classes match (the columnar-scan fast path), per-element
  /// AppendFrom otherwise.
  void AppendRangeFrom(const ColumnVector& src, size_t begin, size_t end);

  /// Appends column `ordinal` of rows[begin, end) — the scan-boundary bulk
  /// load. Equivalent to Append per cell but with the tag dispatch hoisted
  /// out of the loop; falls back to generic appends on the first cell whose
  /// runtime type disagrees with the declared type (variant promotion).
  void AppendRowsColumn(const RowVector& rows, size_t begin, size_t end,
                        size_t ordinal);

  // Typed readers; valid only for the matching tag and non-null rows
  // (no checks — these are the kernels' inner-loop accessors).
  int64_t i64(size_t i) const { return i64_[i]; }
  double f64(size_t i) const { return f64_[i]; }
  const std::string& str(size_t i) const { return str_[i]; }
  const Datum& variant(size_t i) const { return var_[i]; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Numeric view of a non-null fixed-width value (INT/DATE/BOOL/DOUBLE),
  /// for cross-type comparisons. Invalid for strings.
  double NumericAt(size_t i) const {
    return tag_ == VecTag::kInt64 ? static_cast<double>(i64_[i])
           : tag_ == VecTag::kDouble
               ? f64_[i]
               : GetDatum(i).AsDouble();  // variant numerics
  }

  /// Hash of row `i`, consistent with Datum::Hash (integral doubles hash
  /// like ints so mixed-type join keys agree across sides).
  size_t HashAt(size_t i) const;

 private:
  void PromoteToVariant();

  TypeId declared_;
  VecTag tag_;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  std::vector<Datum> var_;
};

/// Compares row `ai` of `a` with row `bi` of `b` using Datum::Compare
/// semantics (NULLs first and equal to each other, mixed numerics by
/// value), with a fast path when both columns share a typed tag.
int CompareAt(const ColumnVector& a, size_t ai, const ColumnVector& b,
              size_t bi);

/// A horizontal slice of rows in columnar form — the unit that flows
/// between pipeline stages of the batch engine. All columns have `rows`
/// entries.
struct ColumnBatch {
  std::vector<ColumnVector> columns;
  size_t rows = 0;

  ColumnBatch() = default;
  explicit ColumnBatch(const std::vector<TypeId>& types) {
    columns.reserve(types.size());
    for (TypeId t : types) columns.emplace_back(t);
  }

  size_t num_columns() const { return columns.size(); }
};

/// A fully materialized operator result: column types plus the batches in
/// stream order. Batches keep their morsel boundaries so a downstream
/// pipeline can re-parallelize without re-splitting.
struct ColumnTable {
  std::vector<TypeId> types;
  std::vector<ColumnBatch> batches;
};

/// Batch size the engine slices inputs into: PDW_BATCH_SIZE when set
/// (minimum 1), else 1024 — read once per process.
int DefaultBatchSize();

// --- row -> batch converter (the scan boundary) ---

/// Appends rows[begin, end) to `out`, mapping stored column `ordinals[c]`
/// to batch column c (a scan's projection).
void AppendRowsToBatch(const RowVector& rows, size_t begin, size_t end,
                       const std::vector<int>& ordinals, ColumnBatch* out);

}  // namespace pdw

#endif  // PDW_ENGINE_BATCH_H_
