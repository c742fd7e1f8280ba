#ifndef PDW_COMMON_DATUM_H_
#define PDW_COMMON_DATUM_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace pdw {

/// A single SQL value: NULL or one of the supported primitive types.
/// Datums are value types — cheap to copy for numerics, and strings use
/// std::string's small-buffer/heap semantics.
class Datum {
 public:
  /// Constructs SQL NULL.
  Datum() = default;

  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) { return Datum(std::in_place_type<bool>, v); }
  static Datum Int(int64_t v) { return Datum(std::in_place_type<int64_t>, v); }
  static Datum Double(double v) { return Datum(std::in_place_type<double>, v); }
  static Datum Varchar(std::string v) {
    return Datum(std::in_place_type<std::string>, std::move(v));
  }
  /// `days` is days since 1970-01-01.
  static Datum Date(int32_t days) {
    return Datum(std::in_place_type<int64_t>, days, /*is_date=*/true);
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(value_); }

  /// Runtime type of this value; NULL reports kInvalid. Inline: this is
  /// the per-cell dispatch of the batch engine's row<->column converters.
  TypeId type() const {
    switch (value_.index()) {
      case 0:
        return TypeId::kInvalid;
      case 1:
        return TypeId::kBool;
      case 2:
        return is_date_ ? TypeId::kDate : TypeId::kInt;
      case 3:
        return TypeId::kDouble;
      default:
        return TypeId::kVarchar;
    }
  }

  bool bool_value() const { return std::get<bool>(value_); }
  int64_t int_value() const { return std::get<int64_t>(value_); }
  double double_value() const { return std::get<double>(value_); }
  const std::string& string_value() const { return std::get<std::string>(value_); }
  int32_t date_value() const { return static_cast<int32_t>(std::get<int64_t>(value_)); }

  /// Numeric view of INT/DOUBLE/DATE/BOOL values for arithmetic and
  /// comparisons across numeric types. Calling on VARCHAR/NULL is invalid.
  double AsDouble() const;

  /// Three-way comparison with SQL semantics *except* NULL handling: the
  /// caller is responsible for NULL checks (comparisons with NULL should
  /// yield SQL NULL, which this value-level function cannot express).
  /// NULLs sort first here, which is what ORDER BY and row-set comparison
  /// utilities need. Mixed numeric types compare by numeric value.
  int Compare(const Datum& other) const;

  bool operator==(const Datum& other) const { return Compare(other) == 0; }

  /// Stable hash consistent with Compare()==0 equality. Used for hash
  /// joins, aggregation, and DMS hash-partition routing.
  size_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", 42, 3.5, 'abc', DATE '1994-01-01').
  std::string ToString() const;

  /// In-memory width in bytes, for row-width statistics.
  int Width() const;

  /// Casts to `target`; numeric widening/narrowing plus string<->numeric.
  Result<Datum> CastTo(TypeId target) const;

 private:
  using Value = std::variant<std::monostate, bool, int64_t, double, std::string>;
  /// Builds the alternative in place. Moving a temporary Value in made GCC
  /// report -Wmaybe-uninitialized wherever the factories were inlined.
  template <typename T>
  Datum(std::in_place_type_t<T> type, std::type_identity_t<T> v,
        bool is_date = false)
      : value_(type, std::move(v)), is_date_(is_date) {}

  Value value_;
  bool is_date_ = false;
};

/// Strict weak order over Datums via Compare(), with NULLs first. Use as
/// the comparator of ordered containers keyed on SQL values (e.g. the
/// DISTINCT-aggregate sets of both execution engines), where value
/// equality — not rendering — must decide collisions: 2 and 2.0 compare
/// equal, while their ToString() forms do not collide.
struct DatumLess {
  bool operator()(const Datum& a, const Datum& b) const {
    return a.Compare(b) < 0;
  }
};

/// Parses 'YYYY-MM-DD' into days since epoch (proleptic Gregorian).
Result<int32_t> ParseDate(const std::string& text);

/// Inverse of ParseDate.
std::string FormatDate(int32_t days_since_epoch);

/// Adds `n` whole years to a date value (DATEADD(year, n, d)).
int32_t AddYears(int32_t days_since_epoch, int n);

}  // namespace pdw

#endif  // PDW_COMMON_DATUM_H_
