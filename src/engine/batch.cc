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

void ColumnVector::Detach() {
  p_ = p_ == nullptr ? std::make_shared<Payload>()
                     : std::make_shared<Payload>(*p_);
}

const std::vector<uint8_t>& ColumnVector::nulls() const {
  static const std::vector<uint8_t> kNone;
  return p_ ? p_->nulls : kNone;
}

void ColumnVector::Reserve(size_t n) {
  Payload& p = Mut();
  p.nulls.reserve(n);
  switch (tag_) {
    case VecTag::kInt64:
      p.i64.reserve(n);
      break;
    case VecTag::kDouble:
      p.f64.reserve(n);
      break;
    case VecTag::kString:
      p.str.reserve(n);
      break;
    case VecTag::kVariant:
      p.var.reserve(n);
      break;
  }
}

void ColumnVector::ReserveForAppend(size_t n) {
  const size_t needed = p_->nulls.size() + n;
  if (needed <= p_->nulls.capacity()) return;
  Reserve(std::max(needed, 2 * p_->nulls.capacity()));
}

void ColumnVector::Clear() {
  Payload& p = Mut();
  p.nulls.clear();
  p.i64.clear();
  p.f64.clear();
  p.str.clear();
  p.var.clear();
}

Datum ColumnVector::GetDatum(size_t i) const {
  const Payload& p = *p_;
  if (p.nulls[i]) return Datum::Null();
  switch (tag_) {
    case VecTag::kInt64:
      switch (declared_) {
        case TypeId::kDate:
          return Datum::Date(static_cast<int32_t>(p.i64[i]));
        case TypeId::kBool:
          return Datum::Bool(p.i64[i] != 0);
        default:
          return Datum::Int(p.i64[i]);
      }
    case VecTag::kDouble:
      return Datum::Double(p.f64[i]);
    case VecTag::kString:
      return Datum::Varchar(p.str[i]);
    case VecTag::kVariant:
      return p.var[i];
  }
  return Datum::Null();
}

void ColumnVector::PromoteToVariant() {
  Payload& p = *p_;
  size_t n = p.nulls.size();
  p.var.clear();
  p.var.reserve(n);
  for (size_t i = 0; i < n; ++i) p.var.push_back(GetDatum(i));
  tag_ = VecTag::kVariant;
  p.i64.clear();
  p.f64.clear();
  p.str.clear();
}

void ColumnVector::AppendUnique(const Datum& d) {
  if (d.is_null()) {
    AppendNullUnique();
    return;
  }
  Payload& p = *p_;
  switch (tag_) {
    case VecTag::kInt64:
      if (d.type() == declared_) {
        p.nulls.push_back(0);
        // All int64-plane types store their raw 64-bit payload.
        p.i64.push_back(declared_ == TypeId::kBool
                            ? static_cast<int64_t>(d.bool_value())
                        : declared_ == TypeId::kDate
                            ? static_cast<int64_t>(d.date_value())
                            : d.int_value());
        return;
      }
      break;
    case VecTag::kDouble:
      if (d.type() == TypeId::kDouble) {
        p.nulls.push_back(0);
        p.f64.push_back(d.double_value());
        return;
      }
      break;
    case VecTag::kString:
      if (d.type() == TypeId::kVarchar) {
        p.nulls.push_back(0);
        p.str.push_back(d.string_value());
        return;
      }
      break;
    case VecTag::kVariant:
      p.nulls.push_back(0);
      p.var.push_back(d);
      return;
  }
  // Runtime type disagrees with the declared column type: degrade to
  // exact Datum storage rather than coercing the value.
  PromoteToVariant();
  p.nulls.push_back(0);
  p.var.push_back(d);
}

void ColumnVector::AppendNullUnique() {
  Payload& p = *p_;
  p.nulls.push_back(1);
  switch (tag_) {
    case VecTag::kInt64:
      p.i64.push_back(0);
      break;
    case VecTag::kDouble:
      p.f64.push_back(0);
      break;
    case VecTag::kString:
      p.str.emplace_back();
      break;
    case VecTag::kVariant:
      p.var.emplace_back();
      break;
  }
}

void ColumnVector::AppendFromUnique(const ColumnVector& src, size_t i) {
  const Payload& s = *src.p_;
  if (s.nulls[i]) {
    AppendNullUnique();
    return;
  }
  if (tag_ == src.tag_ && declared_ == src.declared_ &&
      tag_ != VecTag::kVariant) {
    Payload& p = *p_;
    p.nulls.push_back(0);
    switch (tag_) {
      case VecTag::kInt64:
        p.i64.push_back(s.i64[i]);
        return;
      case VecTag::kDouble:
        p.f64.push_back(s.f64[i]);
        return;
      case VecTag::kString:
        p.str.push_back(s.str[i]);
        return;
      default:
        break;
    }
  }
  AppendUnique(src.GetDatum(i));
}

void ColumnVector::AppendRangeFrom(const ColumnVector& src, size_t begin,
                                   size_t end) {
  if (begin >= end) return;
  bool same_storage = tag_ == src.tag_ && declared_ == src.declared_;
  if (same_storage && empty() && begin == 0 && end == src.size()) {
    p_ = src.p_;
    return;
  }
  Payload& p = Mut();
  const Payload& s = *src.p_;
  if (same_storage) {
    p.nulls.insert(p.nulls.end(), s.nulls.begin() + begin,
                   s.nulls.begin() + end);
    switch (tag_) {
      case VecTag::kInt64:
        p.i64.insert(p.i64.end(), s.i64.begin() + begin, s.i64.begin() + end);
        return;
      case VecTag::kDouble:
        p.f64.insert(p.f64.end(), s.f64.begin() + begin, s.f64.begin() + end);
        return;
      case VecTag::kString:
        p.str.insert(p.str.end(), s.str.begin() + begin, s.str.begin() + end);
        return;
      case VecTag::kVariant:
        p.var.insert(p.var.end(), s.var.begin() + begin, s.var.begin() + end);
        return;
    }
  }
  ReserveForAppend(end - begin);
  for (size_t i = begin; i < end; ++i) AppendFromUnique(src, i);
}

void ColumnVector::AppendRowsColumn(const RowVector& rows, size_t ordinal) {
  Payload& p = Mut();
  size_t end = rows.size();
  ReserveForAppend(end);
  for (size_t r = 0; r < end; ++r) {
    const Datum& d = rows[r][ordinal];
    if (d.is_null()) {
      AppendNullUnique();
      continue;
    }
    if (d.type() != declared_ || tag_ == VecTag::kVariant) {
      // Variant promotion changes the tag mid-column; finish this column
      // through the generic per-cell path.
      for (; r < end; ++r) AppendUnique(rows[r][ordinal]);
      return;
    }
    p.nulls.push_back(0);
    switch (tag_) {
      case VecTag::kInt64:
        p.i64.push_back(declared_ == TypeId::kBool
                            ? static_cast<int64_t>(d.bool_value())
                        : declared_ == TypeId::kDate
                            ? static_cast<int64_t>(d.date_value())
                            : d.int_value());
        break;
      case VecTag::kDouble:
        p.f64.push_back(d.double_value());
        break;
      case VecTag::kString:
        p.str.push_back(d.string_value());
        break;
      case VecTag::kVariant:
        p.var.push_back(d);
        break;
    }
  }
}

ColumnVector Gather(const ColumnVector& src, const std::vector<int32_t>& rows) {
  static const ColumnVector::Payload kEmpty;  // an empty source: -1 rows only
  const ColumnVector::Payload& s = src.p_ ? *src.p_ : kEmpty;
  ColumnVector out(src.declared_);
  out.tag_ = src.tag_;
  ColumnVector::Payload& p = out.Mut();
  size_t n = rows.size();
  p.nulls.resize(n);
  // A -1 row is NULL with the default value slot; so is a source NULL, so
  // copying the source's slot keeps the planes aligned either way.
  auto gather = [&](auto& dst, const auto& from) {
    dst.resize(n);
    uint8_t* nulls = p.nulls.data();
    const uint8_t* src_nulls = s.nulls.data();
    auto* values = dst.data();
    const auto* src_values = from.data();
    for (size_t k = 0; k < n; ++k) {
      int32_t r = rows[k];
      if (r < 0) {
        nulls[k] = 1;
        continue;
      }
      size_t i = static_cast<size_t>(r);
      nulls[k] = src_nulls[i];
      values[k] = src_values[i];
    }
  };
  switch (src.tag_) {
    case VecTag::kInt64:
      gather(p.i64, s.i64);
      break;
    case VecTag::kDouble:
      gather(p.f64, s.f64);
      break;
    case VecTag::kString:
      gather(p.str, s.str);
      break;
    case VecTag::kVariant:
      gather(p.var, s.var);
      break;
  }
  return out;
}

size_t ColumnVector::HashAt(size_t i) const {
  // Mirrors Datum::Hash exactly so hash-partitioned structures agree with
  // Datum-level equality (notably integral doubles hashing like ints).
  const Payload& p = *p_;
  if (p.nulls[i]) return 0x9e3779b97f4a7c15ULL;
  switch (tag_) {
    case VecTag::kInt64:
      if (declared_ == TypeId::kBool) return std::hash<bool>()(p.i64[i] != 0);
      return std::hash<int64_t>()(p.i64[i]);
    case VecTag::kDouble: {
      double d = p.f64[i];
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case VecTag::kString:
      return std::hash<std::string>()(p.str[i]);
    case VecTag::kVariant:
      return p.var[i].Hash();
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
