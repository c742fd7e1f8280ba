#ifndef PDW_ENGINE_BATCH_H_
#define PDW_ENGINE_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/row.h"
#include "common/types.h"

namespace pdw {

/// Indices of the active rows of a batch, in emission order (ascending
/// unless a sort permuted them). Fused filter evaluation shrinks a
/// selection vector in place instead of copying survivors, so a
/// scan→filter→filter chain touches each column value once and
/// materializes nothing until the pipeline's sink.
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
///
/// The value planes live behind one reference-counted payload: copying a
/// ColumnVector shares it, so a scan hands out the stored table's columns
/// and a projection forwards its input's without copying a value. Every
/// mutating call first makes the payload unique to this vector (copy on
/// write), so a shared column never changes under a reader — an append to
/// a stored table leaves the plans still scanning it untouched. Bulk calls
/// check uniqueness once, not per element.
class ColumnVector {
 public:
  ColumnVector() : ColumnVector(TypeId::kInvalid) {}
  explicit ColumnVector(TypeId declared)
      : declared_(declared), tag_(VecTagForType(declared)) {}

  TypeId declared_type() const { return declared_; }
  VecTag tag() const { return tag_; }
  size_t size() const { return p_ ? p_->nulls.size() : 0; }
  bool empty() const { return size() == 0; }

  void Reserve(size_t n);
  void Clear();

  bool IsNull(size_t i) const { return p_->nulls[i] != 0; }

  /// Reconstructs the Datum at `i` (exact round-trip of what was appended).
  Datum GetDatum(size_t i) const;

  /// Appends any Datum, promoting storage if its type does not match.
  void Append(const Datum& d) {
    Mut();
    AppendUnique(d);
  }
  void AppendNull() {
    Mut();
    AppendNullUnique();
  }

  /// Fast typed appends; the tag must match (callers on hot paths know it).
  void AppendI64(int64_t v) {
    Payload& p = Mut();
    p.nulls.push_back(0);
    p.i64.push_back(v);
  }
  void AppendF64(double v) {
    Payload& p = Mut();
    p.nulls.push_back(0);
    p.f64.push_back(v);
  }

  /// Appends row `i` of `src` (same declared type) to this vector.
  void AppendFrom(const ColumnVector& src, size_t i) {
    Mut();
    AppendFromUnique(src, i);
  }

  /// Appends rows [begin, end) of `src` — a bulk vector splice when the
  /// storage classes match, per-element copies otherwise. All of `src`
  /// into an empty vector of the same storage shares `src`'s payload.
  void AppendRangeFrom(const ColumnVector& src, size_t begin, size_t end);

  /// Appends column `ordinal` of every row — the storage-boundary bulk
  /// load. Equivalent to Append per cell but with the tag dispatch hoisted
  /// out of the loop; falls back to generic appends on the first cell whose
  /// runtime type disagrees with the declared type (variant promotion).
  void AppendRowsColumn(const RowVector& rows, size_t ordinal);

  // Typed readers; valid only for the matching tag and non-null rows
  // (no checks — these are the kernels' inner-loop accessors).
  int64_t i64(size_t i) const { return p_->i64[i]; }
  double f64(size_t i) const { return p_->f64[i]; }
  const std::string& str(size_t i) const { return p_->str[i]; }
  const Datum& variant(size_t i) const { return p_->var[i]; }
  const std::vector<uint8_t>& nulls() const;

  /// Numeric view of a non-null fixed-width value (INT/DATE/BOOL/DOUBLE),
  /// for cross-type comparisons. Invalid for strings.
  double NumericAt(size_t i) const {
    return tag_ == VecTag::kInt64 ? static_cast<double>(p_->i64[i])
           : tag_ == VecTag::kDouble
               ? p_->f64[i]
               : GetDatum(i).AsDouble();  // variant numerics
  }

  /// Hash of row `i`, consistent with Datum::Hash (integral doubles hash
  /// like ints so mixed-type join keys agree across sides).
  size_t HashAt(size_t i) const;

  friend ColumnVector Gather(const ColumnVector& src,
                             const std::vector<int32_t>& rows);

 private:
  struct Payload {
    std::vector<uint8_t> nulls;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
    std::vector<Datum> var;
  };

  /// The payload, made unique to this vector first (copy on write).
  Payload& Mut() {
    if (p_ == nullptr || p_.use_count() != 1) Detach();
    return *p_;
  }
  void Detach();

  // Appends that assume Mut() already ran.
  void AppendUnique(const Datum& d);
  void AppendNullUnique();
  void AppendFromUnique(const ColumnVector& src, size_t i);
  void PromoteToVariant();
  /// Makes room for `n` more rows, growing geometrically so that a run of
  /// small appends (one-row INSERTs) stays linear overall.
  void ReserveForAppend(size_t n);

  TypeId declared_;
  VecTag tag_;
  std::shared_ptr<Payload> p_;  ///< Null until the first write.
};

/// Rows `rows` of `src` as a new vector of `src`'s type and storage, in
/// `rows` order; row index -1 yields NULL. One storage-tag dispatch per
/// call — the gather behind join output, build sides and non-identity
/// column references.
ColumnVector Gather(const ColumnVector& src, const std::vector<int32_t>& rows);

/// Compares row `ai` of `a` with row `bi` of `b` using Datum::Compare
/// semantics (NULLs first and equal to each other, mixed numerics by
/// value), with a fast path when both columns share a typed tag.
int CompareAt(const ColumnVector& a, size_t ai, const ColumnVector& b,
              size_t bi);

/// Rows in columnar form — what each batch-engine operator emits (with a
/// selection vector), and the one stored form of a LocalEngine table. All
/// columns have `rows` entries. Copying a batch shares its columns.
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
