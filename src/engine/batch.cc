#include "engine/batch.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace pdw {

VecTag VecTagForType(TypeId type) {
  switch (type) {
    case TypeId::kBool:
    case TypeId::kInt:
    case TypeId::kDate:
      return VecTag::kInt64;
    case TypeId::kDouble:
      return VecTag::kDouble;
    case TypeId::kVarchar:
      return VecTag::kString;
    default:
      return VecTag::kVariant;
  }
}

void ColumnVector::Reserve(size_t n) {
  nulls_.reserve(n);
  switch (tag_) {
    case VecTag::kInt64:
      i64_.reserve(n);
      break;
    case VecTag::kDouble:
      f64_.reserve(n);
      break;
    case VecTag::kString:
      str_.reserve(n);
      break;
    case VecTag::kVariant:
      var_.reserve(n);
      break;
  }
}

void ColumnVector::ReserveForAppend(size_t n) {
  const size_t needed = nulls_.size() + n;
  if (needed <= nulls_.capacity()) return;
  Reserve(std::max(needed, 2 * nulls_.capacity()));
}

void ColumnVector::Clear() {
  nulls_.clear();
  i64_.clear();
  f64_.clear();
  str_.clear();
  var_.clear();
}

Datum ColumnVector::GetDatum(size_t i) const {
  if (nulls_[i]) return Datum::Null();
  switch (tag_) {
    case VecTag::kInt64:
      switch (declared_) {
        case TypeId::kDate:
          return Datum::Date(static_cast<int32_t>(i64_[i]));
        case TypeId::kBool:
          return Datum::Bool(i64_[i] != 0);
        default:
          return Datum::Int(i64_[i]);
      }
    case VecTag::kDouble:
      return Datum::Double(f64_[i]);
    case VecTag::kString:
      return Datum::Varchar(str_[i]);
    case VecTag::kVariant:
      return var_[i];
  }
  return Datum::Null();
}

void ColumnVector::PromoteToVariant() {
  size_t n = nulls_.size();
  var_.clear();
  var_.reserve(n);
  for (size_t i = 0; i < n; ++i) var_.push_back(GetDatum(i));
  tag_ = VecTag::kVariant;
  i64_.clear();
  f64_.clear();
  str_.clear();
}

void ColumnVector::Append(const Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return;
  }
  switch (tag_) {
    case VecTag::kInt64:
      if (d.type() == declared_) {
        nulls_.push_back(0);
        // All int64-plane types store their raw 64-bit payload.
        i64_.push_back(declared_ == TypeId::kBool
                           ? static_cast<int64_t>(d.bool_value())
                       : declared_ == TypeId::kDate
                           ? static_cast<int64_t>(d.date_value())
                           : d.int_value());
        return;
      }
      break;
    case VecTag::kDouble:
      if (d.type() == TypeId::kDouble) {
        nulls_.push_back(0);
        f64_.push_back(d.double_value());
        return;
      }
      break;
    case VecTag::kString:
      if (d.type() == TypeId::kVarchar) {
        nulls_.push_back(0);
        str_.push_back(d.string_value());
        return;
      }
      break;
    case VecTag::kVariant:
      nulls_.push_back(0);
      var_.push_back(d);
      return;
  }
  // Runtime type disagrees with the declared column type: degrade to
  // exact Datum storage rather than coercing the value.
  PromoteToVariant();
  nulls_.push_back(0);
  var_.push_back(d);
}

void ColumnVector::AppendNull() {
  nulls_.push_back(1);
  switch (tag_) {
    case VecTag::kInt64:
      i64_.push_back(0);
      break;
    case VecTag::kDouble:
      f64_.push_back(0);
      break;
    case VecTag::kString:
      str_.emplace_back();
      break;
    case VecTag::kVariant:
      var_.emplace_back();
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.nulls_[i]) {
    AppendNull();
    return;
  }
  if (tag_ == src.tag_ && declared_ == src.declared_ &&
      tag_ != VecTag::kVariant) {
    nulls_.push_back(0);
    switch (tag_) {
      case VecTag::kInt64:
        i64_.push_back(src.i64_[i]);
        return;
      case VecTag::kDouble:
        f64_.push_back(src.f64_[i]);
        return;
      case VecTag::kString:
        str_.push_back(src.str_[i]);
        return;
      default:
        break;
    }
  }
  Append(src.GetDatum(i));
}

void ColumnVector::AppendRangeFrom(const ColumnVector& src, size_t begin,
                                   size_t end) {
  if (begin >= end) return;
  if (tag_ == src.tag_ && declared_ == src.declared_) {
    nulls_.insert(nulls_.end(), src.nulls_.begin() + begin,
                  src.nulls_.begin() + end);
    switch (tag_) {
      case VecTag::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + begin,
                    src.i64_.begin() + end);
        return;
      case VecTag::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + begin,
                    src.f64_.begin() + end);
        return;
      case VecTag::kString:
        str_.insert(str_.end(), src.str_.begin() + begin,
                    src.str_.begin() + end);
        return;
      case VecTag::kVariant:
        var_.insert(var_.end(), src.var_.begin() + begin,
                    src.var_.begin() + end);
        return;
    }
  }
  ReserveForAppend(end - begin);
  for (size_t i = begin; i < end; ++i) AppendFrom(src, i);
}

void ColumnVector::AppendRowsColumn(const RowVector& rows, size_t ordinal) {
  size_t end = rows.size();
  ReserveForAppend(end);
  for (size_t r = 0; r < end; ++r) {
    const Datum& d = rows[r][ordinal];
    if (d.is_null()) {
      AppendNull();
      continue;
    }
    if (d.type() != declared_ || tag_ == VecTag::kVariant) {
      // Variant promotion changes the tag mid-column; finish this column
      // through the generic per-cell path.
      for (; r < end; ++r) Append(rows[r][ordinal]);
      return;
    }
    nulls_.push_back(0);
    switch (tag_) {
      case VecTag::kInt64:
        i64_.push_back(declared_ == TypeId::kBool
                           ? static_cast<int64_t>(d.bool_value())
                       : declared_ == TypeId::kDate
                           ? static_cast<int64_t>(d.date_value())
                           : d.int_value());
        break;
      case VecTag::kDouble:
        f64_.push_back(d.double_value());
        break;
      case VecTag::kString:
        str_.push_back(d.string_value());
        break;
      case VecTag::kVariant:
        var_.push_back(d);
        break;
    }
  }
}

size_t ColumnVector::HashAt(size_t i) const {
  // Mirrors Datum::Hash exactly so hash-partitioned structures agree with
  // Datum-level equality (notably integral doubles hashing like ints).
  if (nulls_[i]) return 0x9e3779b97f4a7c15ULL;
  switch (tag_) {
    case VecTag::kInt64:
      if (declared_ == TypeId::kBool) return std::hash<bool>()(i64_[i] != 0);
      return std::hash<int64_t>()(i64_[i]);
    case VecTag::kDouble: {
      double d = f64_[i];
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case VecTag::kString:
      return std::hash<std::string>()(str_[i]);
    case VecTag::kVariant:
      return var_[i].Hash();
  }
  return 0;
}

int CompareAt(const ColumnVector& a, size_t ai, const ColumnVector& b,
              size_t bi) {
  bool an = a.IsNull(ai);
  bool bn = b.IsNull(bi);
  if (an && bn) return 0;
  if (an) return -1;
  if (bn) return 1;
  if (a.tag() == b.tag()) {
    switch (a.tag()) {
      case VecTag::kInt64: {
        // INT/DATE/BOOL compare within the int64 plane; mixed declared
        // types (e.g. INT vs DATE) still order by the raw value, exactly
        // like Datum::Compare's numeric path.
        int64_t x = a.i64(ai);
        int64_t y = b.i64(bi);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case VecTag::kDouble: {
        double x = a.f64(ai);
        double y = b.f64(bi);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case VecTag::kString: {
        int c = a.str(ai).compare(b.str(bi));
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      case VecTag::kVariant:
        return a.variant(ai).Compare(b.variant(bi));
    }
  }
  if (a.tag() != VecTag::kVariant && b.tag() != VecTag::kVariant &&
      a.tag() != VecTag::kString && b.tag() != VecTag::kString) {
    double x = a.NumericAt(ai);
    double y = b.NumericAt(bi);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return a.GetDatum(ai).Compare(b.GetDatum(bi));
}

void AppendRowsToBatch(const RowVector& rows, ColumnBatch* out) {
  for (size_t c = 0; c < out->columns.size(); ++c) {
    out->columns[c].AppendRowsColumn(rows, c);
  }
  out->rows += rows.size();
}

RowVector BatchToRows(const ColumnBatch& batch,
                      const std::vector<int>& ordinals) {
  RowVector rows;
  rows.reserve(batch.rows);
  for (size_t r = 0; r < batch.rows; ++r) {
    Row row;
    row.reserve(ordinals.size());
    for (int o : ordinals) {
      row.push_back(batch.columns[static_cast<size_t>(o)].GetDatum(r));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace pdw
