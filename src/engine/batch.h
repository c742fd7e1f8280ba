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

  /// Appends column `ordinal` of every row — the storage-boundary bulk
  /// load. Equivalent to Append per cell but with the tag dispatch hoisted
  /// out of the loop; falls back to generic appends on the first cell whose
  /// runtime type disagrees with the declared type (variant promotion).
  void AppendRowsColumn(const RowVector& rows, size_t ordinal);

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
  /// Makes room for `n` more rows, growing geometrically so that a run of
  /// small appends (one-row INSERTs) stays linear overall.
  void ReserveForAppend(size_t n);

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
/// between pipeline stages of the batch engine, and the one stored form of
/// a LocalEngine table. All columns have `rows` entries.
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

/// Rows per batch the engine slices inputs into unless
/// ExecOptions::batch_size says otherwise.
inline constexpr int kDefaultBatchSize = 1024;

// --- row <-> batch converters (the storage boundary) ---

/// Appends every row of `rows` to `out`, row column c to batch column c.
void AppendRowsToBatch(const RowVector& rows, ColumnBatch* out);

/// Every row of `batch` as Datum rows, with batch column `ordinals[c]` as
/// row column c — the inverse of AppendRowsToBatch, exact for every value
/// it appended.
RowVector BatchToRows(const ColumnBatch& batch,
                      const std::vector<int>& ordinals);

}  // namespace pdw

#endif  // PDW_ENGINE_BATCH_H_
