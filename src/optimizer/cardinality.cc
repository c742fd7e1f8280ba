#include "optimizer/cardinality.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <utility>

namespace pdw {

namespace {

using sql::BinaryOp;

constexpr double kDefaultCmpSelectivity = 1.0 / 3.0;
constexpr double kDefaultEqSelectivity = 0.1;
constexpr double kLikeSelectivity = 0.05;

bool SplitColumnLiteral(const ScalarExprPtr& e, ColumnId* col, Datum* value,
                        BinaryOp* op) {
  if (e->kind() != ScalarKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExprB&>(*e);
  *op = b.op();
  if (b.left()->kind() == ScalarKind::kColumn &&
      b.right()->kind() == ScalarKind::kLiteral) {
    *col = static_cast<const ColumnExpr&>(*b.left()).id();
    *value = static_cast<const LiteralExprB&>(*b.right()).value();
    return true;
  }
  if (b.right()->kind() == ScalarKind::kColumn &&
      b.left()->kind() == ScalarKind::kLiteral) {
    *col = static_cast<const ColumnExpr&>(*b.right()).id();
    *value = static_cast<const LiteralExprB&>(*b.left()).value();
    switch (b.op()) {
      case BinaryOp::kLt: *op = BinaryOp::kGt; break;
      case BinaryOp::kLe: *op = BinaryOp::kGe; break;
      case BinaryOp::kGt: *op = BinaryOp::kLt; break;
      case BinaryOp::kGe: *op = BinaryOp::kLe; break;
      default: break;
    }
    return true;
  }
  return false;
}

}  // namespace

double CardinalityEstimator::ConjunctSelectivity(
    const ScalarExprPtr& conjunct) const {
  if (!conjunct) return 1.0;
  // Literal TRUE/FALSE.
  if (conjunct->kind() == ScalarKind::kLiteral) {
    const Datum& v = static_cast<const LiteralExprB&>(*conjunct).value();
    if (v.is_null()) return 0.0;
    return v.bool_value() ? 1.0 : 0.0;
  }
  if (conjunct->kind() == ScalarKind::kUnary) {
    const auto& u = static_cast<const UnaryExprB&>(*conjunct);
    if (u.op() == sql::UnaryOp::kNot) {
      return std::clamp(1.0 - ConjunctSelectivity(u.operand()), 0.0, 1.0);
    }
    return kDefaultCmpSelectivity;
  }
  if (conjunct->kind() == ScalarKind::kIsNull) {
    const auto& n = static_cast<const IsNullExprB&>(*conjunct);
    double null_frac = 0.01;
    if (n.operand()->kind() == ScalarKind::kColumn) {
      ColumnId id = static_cast<const ColumnExpr&>(*n.operand()).id();
      const ColumnStats* cs = stats_->GetStats(id);
      if (cs != nullptr && cs->row_count > 0) {
        null_frac = cs->null_count / cs->row_count;
      }
    }
    return n.negated() ? 1.0 - null_frac : null_frac;
  }
  if (conjunct->kind() != ScalarKind::kBinary) return kDefaultCmpSelectivity;

  const auto& b = static_cast<const BinaryExprB&>(*conjunct);
  switch (b.op()) {
    case BinaryOp::kAnd:
      return ConjunctSelectivity(b.left()) * ConjunctSelectivity(b.right());
    case BinaryOp::kOr: {
      double l = ConjunctSelectivity(b.left());
      double r = ConjunctSelectivity(b.right());
      return std::clamp(l + r - l * r, 0.0, 1.0);
    }
    case BinaryOp::kLike:
      return kLikeSelectivity;
    case BinaryOp::kNotLike:
      return 1.0 - kLikeSelectivity;
    default:
      break;
  }

  // Column-vs-column equality (within one input): 1/max ndv.
  ColumnId ca, cb;
  if (IsColumnEquality(conjunct, &ca, &cb)) {
    return JoinEqualitySelectivity(ca, cb);
  }

  // Column-vs-literal.
  ColumnId col;
  Datum value;
  BinaryOp op;
  if (SplitColumnLiteral(conjunct, &col, &value, &op)) {
    const ColumnStats* cs = stats_->GetStats(col);
    if (cs == nullptr) {
      return op == BinaryOp::kEq ? kDefaultEqSelectivity
                                 : kDefaultCmpSelectivity;
    }
    switch (op) {
      case BinaryOp::kEq:
        return cs->EqualsSelectivity(value);
      case BinaryOp::kNe:
        return std::clamp(1.0 - cs->EqualsSelectivity(value), 0.0, 1.0);
      case BinaryOp::kLt:
        return cs->RangeSelectivity(Datum::Null(), false, value, false);
      case BinaryOp::kLe:
        return cs->RangeSelectivity(Datum::Null(), false, value, true);
      case BinaryOp::kGt:
        return cs->RangeSelectivity(value, false, Datum::Null(), false);
      case BinaryOp::kGe:
        return cs->RangeSelectivity(value, true, Datum::Null(), false);
      default:
        return kDefaultCmpSelectivity;
    }
  }
  return kDefaultCmpSelectivity;
}

double CardinalityEstimator::Selectivity(
    const std::vector<ScalarExprPtr>& conjuncts) const {
  // Union-find over the columns the counted equalities name: (column,
  // index of its parent). The join enumeration calls this once per DP
  // subset, so the table lives in a stack buffer; only a call with more
  // than 64 conjuncts spills to the heap.
  std::array<std::byte, 1024> buffer;
  std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size());
  std::pmr::vector<std::pair<ColumnId, uint32_t>> parent(&arena);
  parent.reserve(2 * conjuncts.size());
  auto root = [&parent](ColumnId col) {
    size_t i = 0;
    while (i < parent.size() && parent[i].first != col) ++i;
    if (i == parent.size()) parent.emplace_back(col, static_cast<uint32_t>(i));
    while (parent[i].second != i) i = parent[i].second;
    return i;
  };
  double s = 1.0;
  for (const auto& c : conjuncts) {
    ColumnId a, b;
    if (IsColumnEquality(c, &a, &b)) {
      size_t ra = root(a);
      size_t rb = root(b);
      if (ra == rb) continue;  // an earlier equality already equated them
      parent[ra].second = static_cast<uint32_t>(rb);
    }
    s *= ConjunctSelectivity(c);
  }
  return s;
}

double CardinalityEstimator::JoinEqualitySelectivity(ColumnId a,
                                                     ColumnId b) const {
  double ndv_a = stats_->Ndv(a, 10);
  double ndv_b = stats_->Ndv(b, 10);
  double d = std::max({ndv_a, ndv_b, 1.0});
  return 1.0 / d;
}

double CardinalityEstimator::GroupCardinality(
    const std::vector<ColumnId>& group_cols, double input_rows) const {
  if (group_cols.empty()) return 1;
  double product = 1;
  for (ColumnId id : group_cols) {
    product *= std::max(1.0, stats_->Ndv(id, std::sqrt(std::max(1.0, input_rows))));
    if (product > input_rows) return std::max(1.0, input_rows);
  }
  return std::max(1.0, std::min(product, input_rows));
}

double CardinalityEstimator::RowWidth(
    const std::vector<ColumnBinding>& cols) const {
  double w = 0;
  for (const auto& b : cols) w += stats_->Width(b.id);
  return std::max(1.0, w);
}

}  // namespace pdw
