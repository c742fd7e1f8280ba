#include "algebra/normalizer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "algebra/equivalence.h"
#include "algebra/scalar_eval.h"
#include "common/string_util.h"

namespace pdw {

namespace {

using sql::BinaryOp;

std::set<ColumnId> BindingIds(const std::vector<ColumnBinding>& cols) {
  std::set<ColumnId> out;
  for (const auto& b : cols) out.insert(b.id);
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: constant folding.
// ---------------------------------------------------------------------------

bool IsLiteral(const ScalarExprPtr& e) {
  return e->kind() == ScalarKind::kLiteral;
}

/// Rebuilds `e` bottom-up; any subtree with no column references is
/// evaluated to a literal (evaluation failures leave the subtree as-is so
/// runtime errors like division by zero keep their semantics).
ScalarExprPtr FoldExpr(const ScalarExprPtr& e) {
  if (!e) return nullptr;
  ScalarExprPtr rebuilt = e;
  switch (e->kind()) {
    case ScalarKind::kBinary: {
      const auto& b = static_cast<const BinaryExprB&>(*e);
      ScalarExprPtr l = FoldExpr(b.left());
      ScalarExprPtr r = FoldExpr(b.right());
      // Boolean identities: TRUE AND x -> x, FALSE OR x -> x, etc.
      if (b.op() == BinaryOp::kAnd || b.op() == BinaryOp::kOr) {
        bool is_and = b.op() == BinaryOp::kAnd;
        for (int side = 0; side < 2; ++side) {
          const ScalarExprPtr& self = side == 0 ? l : r;
          const ScalarExprPtr& other = side == 0 ? r : l;
          if (IsLiteral(self)) {
            const Datum& v = static_cast<const LiteralExprB&>(*self).value();
            if (!v.is_null()) {
              if (is_and && v.bool_value()) return other;
              if (is_and && !v.bool_value()) return MakeLiteral(Datum::Bool(false));
              if (!is_and && v.bool_value()) return MakeLiteral(Datum::Bool(true));
              if (!is_and && !v.bool_value()) return other;
            }
          }
        }
      }
      rebuilt = std::make_shared<BinaryExprB>(b.op(), l, r, b.type());
      break;
    }
    case ScalarKind::kUnary: {
      const auto& u = static_cast<const UnaryExprB&>(*e);
      rebuilt = std::make_shared<UnaryExprB>(u.op(), FoldExpr(u.operand()),
                                             u.type());
      break;
    }
    case ScalarKind::kIsNull: {
      const auto& n = static_cast<const IsNullExprB&>(*e);
      rebuilt = std::make_shared<IsNullExprB>(FoldExpr(n.operand()),
                                              n.negated());
      break;
    }
    case ScalarKind::kCast: {
      const auto& c = static_cast<const CastExprB&>(*e);
      rebuilt = std::make_shared<CastExprB>(FoldExpr(c.operand()), c.type());
      break;
    }
    case ScalarKind::kCase: {
      const auto& c = static_cast<const CaseExprB&>(*e);
      std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> whens;
      for (const auto& [w, t] : c.whens()) {
        whens.emplace_back(FoldExpr(w), FoldExpr(t));
      }
      rebuilt = std::make_shared<CaseExprB>(std::move(whens),
                                            FoldExpr(c.else_expr()), c.type());
      break;
    }
    case ScalarKind::kFunction: {
      const auto& f = static_cast<const FunctionExprB&>(*e);
      std::vector<ScalarExprPtr> args;
      for (const auto& a : f.args()) args.push_back(FoldExpr(a));
      rebuilt = std::make_shared<FunctionExprB>(f.name(), std::move(args),
                                                f.type());
      break;
    }
    case ScalarKind::kColumn:
    case ScalarKind::kLiteral:
      return e;
  }
  if (rebuilt->kind() != ScalarKind::kLiteral && IsConstantExpr(rebuilt)) {
    Result<Datum> v = EvalConstant(*rebuilt);
    if (v.ok()) return MakeLiteral(std::move(v).ValueOrDie());
  }
  return rebuilt;
}

LogicalOpPtr MakeEmpty(const LogicalOp& shaped_like) {
  return std::make_shared<LogicalEmpty>(shaped_like.OutputBindings());
}

LogicalOpPtr FoldConstantsPass(const LogicalOpPtr& op) {
  std::vector<LogicalOpPtr> children;
  for (const auto& c : op->children()) children.push_back(FoldConstantsPass(c));
  switch (op->kind()) {
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*op);
      std::vector<ScalarExprPtr> kept;
      for (const auto& c : f.conjuncts()) {
        ScalarExprPtr folded = FoldExpr(c);
        if (IsLiteral(folded)) {
          const Datum& v = static_cast<const LiteralExprB&>(*folded).value();
          if (!v.is_null() && v.bool_value()) continue;  // TRUE: drop
          return MakeEmpty(*op);  // FALSE or NULL: no rows survive
        }
        kept.push_back(folded);
      }
      if (kept.empty()) return children[0];
      return std::make_shared<LogicalFilter>(std::move(kept),
                                             std::move(children[0]));
    }
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*op);
      std::vector<ProjectItem> items;
      for (const auto& item : p.items()) {
        items.push_back(ProjectItem{FoldExpr(item.expr), item.output});
      }
      return std::make_shared<LogicalProject>(std::move(items),
                                              std::move(children[0]));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*op);
      std::vector<ScalarExprPtr> conds;
      for (const auto& c : j.conditions()) conds.push_back(FoldExpr(c));
      return std::make_shared<LogicalJoin>(j.join_type(), std::move(conds),
                                           std::move(children[0]),
                                           std::move(children[1]));
    }
    default:
      return op->WithChildren(std::move(children));
  }
}

// ---------------------------------------------------------------------------
// Pass 2: predicate pushdown.
// ---------------------------------------------------------------------------

/// Conservative null-rejection: comparisons, LIKE and IS NOT NULL reject
/// NULL inputs; anything else is assumed not to.
bool IsNullRejecting(const ScalarExprPtr& e, const std::set<ColumnId>& side) {
  std::set<ColumnId> used;
  CollectColumns(e, &used);
  bool touches = false;
  for (ColumnId id : used) {
    if (side.count(id) > 0) touches = true;
  }
  if (!touches) return false;
  if (e->kind() == ScalarKind::kBinary) {
    const auto& b = static_cast<const BinaryExprB&>(*e);
    return b.op() != BinaryOp::kOr;  // comparisons, LIKE, AND of such
  }
  if (e->kind() == ScalarKind::kIsNull) {
    return static_cast<const IsNullExprB&>(*e).negated();
  }
  return false;
}

LogicalOpPtr PushDown(LogicalOpPtr op, std::vector<ScalarExprPtr> conjuncts);

LogicalOpPtr WrapFilter(LogicalOpPtr op, std::vector<ScalarExprPtr> conjuncts) {
  if (conjuncts.empty()) return op;
  return std::make_shared<LogicalFilter>(std::move(conjuncts), std::move(op));
}

LogicalOpPtr PushDownJoin(const LogicalJoin& join, LogicalOpPtr left,
                          LogicalOpPtr right,
                          std::vector<ScalarExprPtr> incoming) {
  std::set<ColumnId> left_ids = BindingIds(left->OutputBindings());
  std::set<ColumnId> right_ids = BindingIds(right->OutputBindings());
  LogicalJoinType jt = join.join_type();

  // Null-rejected left outer joins become inner joins.
  if (jt == LogicalJoinType::kLeftOuter) {
    for (const auto& c : incoming) {
      if (IsNullRejecting(c, right_ids)) {
        jt = LogicalJoinType::kInner;
        break;
      }
    }
  }

  std::vector<ScalarExprPtr> to_left;
  std::vector<ScalarExprPtr> to_right;
  std::vector<ScalarExprPtr> join_conds;
  std::vector<ScalarExprPtr> above;

  // Join's own ON conditions.
  for (const auto& c : join.conditions()) {
    bool l = ExprCoveredBy(c, left_ids);
    bool r = ExprCoveredBy(c, right_ids);
    switch (jt) {
      case LogicalJoinType::kInner:
      case LogicalJoinType::kCross:
        if (l) to_left.push_back(c);
        else if (r) to_right.push_back(c);
        else join_conds.push_back(c);
        break;
      case LogicalJoinType::kLeftOuter:
        // ON conditions of an outer join filter only the match, so only
        // right-side conditions may move (they pre-filter the inner input).
        if (r && !l) to_right.push_back(c);
        else join_conds.push_back(c);
        break;
      case LogicalJoinType::kSemi:
        if (l) to_left.push_back(c);
        else if (r) to_right.push_back(c);
        else join_conds.push_back(c);
        break;
      case LogicalJoinType::kAnti:
        // Right-only conditions pre-filter the probe set; left-only ones
        // change which rows are "matched" and must stay.
        if (r && !l) to_right.push_back(c);
        else join_conds.push_back(c);
        break;
    }
  }
  // Conjuncts arriving from above the join.
  for (const auto& c : incoming) {
    bool l = ExprCoveredBy(c, left_ids);
    bool r = ExprCoveredBy(c, right_ids);
    switch (jt) {
      case LogicalJoinType::kInner:
      case LogicalJoinType::kCross:
        if (l) to_left.push_back(c);
        else if (r) to_right.push_back(c);
        else if (ExprCoveredBy(c, [&] {
                   std::set<ColumnId> both = left_ids;
                   both.insert(right_ids.begin(), right_ids.end());
                   return both;
                 }())) {
          join_conds.push_back(c);
        } else {
          above.push_back(c);
        }
        break;
      case LogicalJoinType::kLeftOuter:
        if (l) to_left.push_back(c);
        else above.push_back(c);
        break;
      case LogicalJoinType::kSemi:
      case LogicalJoinType::kAnti:
        if (l) to_left.push_back(c);
        else above.push_back(c);
        break;
    }
  }

  if (jt == LogicalJoinType::kCross && !join_conds.empty()) {
    jt = LogicalJoinType::kInner;
  }

  LogicalOpPtr new_left = PushDown(std::move(left), std::move(to_left));
  LogicalOpPtr new_right = PushDown(std::move(right), std::move(to_right));
  LogicalOpPtr result = std::make_shared<LogicalJoin>(
      jt, std::move(join_conds), std::move(new_left), std::move(new_right));
  return WrapFilter(std::move(result), std::move(above));
}

LogicalOpPtr PushDown(LogicalOpPtr op, std::vector<ScalarExprPtr> conjuncts) {
  switch (op->kind()) {
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*op);
      std::vector<ScalarExprPtr> all = f.conjuncts();
      all.insert(all.end(), conjuncts.begin(), conjuncts.end());
      return PushDown(op->children()[0], std::move(all));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*op);
      return PushDownJoin(j, op->children()[0], op->children()[1],
                          std::move(conjuncts));
    }
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*op);
      // Inline project expressions into the conjuncts and push them below.
      std::map<ColumnId, ScalarExprPtr> mapping;
      for (const auto& item : p.items()) {
        mapping[item.output.id] = item.expr;
      }
      std::vector<ScalarExprPtr> below;
      for (const auto& c : conjuncts) {
        below.push_back(SubstituteColumns(c, mapping));
      }
      LogicalOpPtr child = PushDown(op->children()[0], std::move(below));
      return std::make_shared<LogicalProject>(p.items(), std::move(child));
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(*op);
      std::set<ColumnId> group_set(a.group_by().begin(), a.group_by().end());
      std::vector<ScalarExprPtr> below;
      std::vector<ScalarExprPtr> above;
      for (const auto& c : conjuncts) {
        if (ExprCoveredBy(c, group_set)) {
          below.push_back(c);
        } else {
          above.push_back(c);
        }
      }
      LogicalOpPtr child = PushDown(op->children()[0], std::move(below));
      LogicalOpPtr agg = std::make_shared<LogicalAggregate>(
          a.group_by(), a.aggregates(), std::move(child));
      return WrapFilter(std::move(agg), std::move(above));
    }
    case LogicalOpKind::kSort: {
      LogicalOpPtr child = PushDown(op->children()[0], std::move(conjuncts));
      return op->WithChildren({std::move(child)});
    }
    case LogicalOpKind::kLimit: {
      // Filtering below a LIMIT changes results; keep conjuncts above.
      LogicalOpPtr child = PushDown(op->children()[0], {});
      return WrapFilter(op->WithChildren({std::move(child)}),
                        std::move(conjuncts));
    }
    case LogicalOpKind::kUnionAll: {
      // Conjuncts could be duplicated per branch via the positional
      // mapping; keep them above the union for simplicity.
      std::vector<LogicalOpPtr> children;
      for (const auto& c : op->children()) {
        children.push_back(PushDown(c, {}));
      }
      return WrapFilter(op->WithChildren(std::move(children)),
                        std::move(conjuncts));
    }
    case LogicalOpKind::kGet:
    case LogicalOpKind::kEmpty:
      return WrapFilter(op, std::move(conjuncts));
  }
  return WrapFilter(op, std::move(conjuncts));
}

// ---------------------------------------------------------------------------
// Pass 3: join transitivity closure + constant propagation.
// ---------------------------------------------------------------------------

bool IsColumnConstant(const ScalarExprPtr& e, ColumnId* col, Datum* value) {
  if (e->kind() != ScalarKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExprB&>(*e);
  if (b.op() != BinaryOp::kEq) return false;
  const ScalarExprPtr* col_side = nullptr;
  const ScalarExprPtr* lit_side = nullptr;
  if (b.left()->kind() == ScalarKind::kColumn &&
      b.right()->kind() == ScalarKind::kLiteral) {
    col_side = &b.left();
    lit_side = &b.right();
  } else if (b.right()->kind() == ScalarKind::kColumn &&
             b.left()->kind() == ScalarKind::kLiteral) {
    col_side = &b.right();
    lit_side = &b.left();
  } else {
    return false;
  }
  *col = static_cast<const ColumnExpr&>(**col_side).id();
  *value = static_cast<const LiteralExprB&>(**lit_side).value();
  return true;
}

/// Collects equi conjuncts and column=constant conjuncts in an inner-join
/// cluster (a maximal region of inner/cross joins and filters).
void CollectClusterPredicates(const LogicalOp& op, ColumnEquivalence* equiv,
                              std::vector<std::pair<ColumnId, Datum>>* constants,
                              std::vector<ScalarExprPtr>* all_equalities) {
  if (op.kind() == LogicalOpKind::kJoin) {
    const auto& j = static_cast<const LogicalJoin&>(op);
    if (j.join_type() == LogicalJoinType::kInner ||
        j.join_type() == LogicalJoinType::kCross) {
      for (const auto& c : j.conditions()) {
        ColumnId a, b;
        if (IsColumnEquality(c, &a, &b)) {
          equiv->AddEquality(a, b);
          all_equalities->push_back(c);
        }
      }
      CollectClusterPredicates(*op.children()[0], equiv, constants,
                               all_equalities);
      CollectClusterPredicates(*op.children()[1], equiv, constants,
                               all_equalities);
    }
    return;  // other join types terminate the cluster
  }
  if (op.kind() == LogicalOpKind::kFilter) {
    const auto& f = static_cast<const LogicalFilter&>(op);
    for (const auto& c : f.conjuncts()) {
      ColumnId a, b;
      Datum v;
      if (IsColumnEquality(c, &a, &b)) {
        equiv->AddEquality(a, b);
        all_equalities->push_back(c);
      } else if (IsColumnConstant(c, &a, &v)) {
        constants->emplace_back(a, v);
      }
    }
    CollectClusterPredicates(*op.children()[0], equiv, constants,
                             all_equalities);
  }
  // Gets, projects, aggregates, other joins: cluster boundary.
}

/// Builds a column-id -> binding lookup for name/type reconstruction.
void CollectAllBindings(const LogicalOp& op,
                        std::map<ColumnId, ColumnBinding>* out) {
  std::vector<std::vector<ColumnBinding>> child_outputs;
  for (const auto& c : op.children()) {
    CollectAllBindings(*c, out);
    child_outputs.push_back(c->OutputBindings());
  }
  for (const auto& b : op.ComputeOutput(child_outputs)) {
    out->emplace(b.id, b);
  }
}

LogicalOpPtr TransitivityClosurePass(const LogicalOpPtr& op, bool* changed) {
  std::vector<LogicalOpPtr> children;
  for (const auto& c : op->children()) {
    children.push_back(TransitivityClosurePass(c, changed));
  }
  LogicalOpPtr rebuilt = op->WithChildren(std::move(children));

  // Only process at the *top* of an inner-join cluster: an inner/cross join
  // whose parent is not an inner/cross join. We approximate by processing
  // every inner join and deduplicating derived predicates.
  if (rebuilt->kind() != LogicalOpKind::kJoin) return rebuilt;
  const auto& j = static_cast<const LogicalJoin&>(*rebuilt);
  if (j.join_type() != LogicalJoinType::kInner &&
      j.join_type() != LogicalJoinType::kCross) {
    return rebuilt;
  }

  ColumnEquivalence equiv;
  std::vector<std::pair<ColumnId, Datum>> constants;
  std::vector<ScalarExprPtr> existing;
  CollectClusterPredicates(*rebuilt, &equiv, &constants, &existing);

  std::map<ColumnId, ColumnBinding> bindings;
  CollectAllBindings(*rebuilt, &bindings);

  std::vector<ScalarExprPtr> derived;
  // Derived equalities: all unordered pairs in each class, minus existing.
  for (const auto& cls : equiv.NonTrivialClasses()) {
    std::vector<ColumnId> members(cls.begin(), cls.end());
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t k = i + 1; k < members.size(); ++k) {
        bool present = false;
        for (const auto& e : existing) {
          ColumnId a, b;
          if (IsColumnEquality(e, &a, &b) &&
              ((a == members[i] && b == members[k]) ||
               (a == members[k] && b == members[i]))) {
            present = true;
            break;
          }
        }
        if (present) continue;
        auto ia = bindings.find(members[i]);
        auto ib = bindings.find(members[k]);
        if (ia == bindings.end() || ib == bindings.end()) continue;
        derived.push_back(MakeBinary(BinaryOp::kEq, MakeColumn(ia->second),
                                     MakeColumn(ib->second)));
        *changed = true;
      }
    }
  }
  // Constant propagation through equivalence classes.
  for (const auto& [col, value] : constants) {
    for (ColumnId other : equiv.ClassOf(col)) {
      if (other == col) continue;
      bool present = false;
      for (const auto& [c2, v2] : constants) {
        if (c2 == other && v2.Compare(value) == 0) present = true;
      }
      if (present) continue;
      auto it = bindings.find(other);
      if (it == bindings.end()) continue;
      derived.push_back(MakeBinary(BinaryOp::kEq, MakeColumn(it->second),
                                   MakeLiteral(value)));
      *changed = true;
    }
  }
  if (derived.empty()) return rebuilt;
  // Attach to the cluster top; the next pushdown pass places them.
  return std::make_shared<LogicalFilter>(std::move(derived),
                                         std::move(rebuilt));
}

// ---------------------------------------------------------------------------
// Pass 4: contradiction detection + empty propagation.
// ---------------------------------------------------------------------------

struct Range {
  std::optional<double> lo;
  bool lo_inclusive = true;
  std::optional<double> hi;
  bool hi_inclusive = true;
  bool contradictory = false;

  void ApplyLow(double v, bool inclusive) {
    if (!lo || v > *lo || (v == *lo && !inclusive)) {
      lo = v;
      lo_inclusive = inclusive;
    }
    Check();
  }
  void ApplyHigh(double v, bool inclusive) {
    if (!hi || v < *hi || (v == *hi && !inclusive)) {
      hi = v;
      hi_inclusive = inclusive;
    }
    Check();
  }
  void Check() {
    if (lo && hi &&
        (*lo > *hi || (*lo == *hi && (!lo_inclusive || !hi_inclusive)))) {
      contradictory = true;
    }
  }
};

bool NumericLiteral(const Datum& d, double* out) {
  switch (d.type()) {
    case TypeId::kInt: *out = static_cast<double>(d.int_value()); return true;
    case TypeId::kDouble: *out = d.double_value(); return true;
    case TypeId::kDate: *out = static_cast<double>(d.date_value()); return true;
    default: return false;
  }
}

/// True if the conjunct set over one Filter is unsatisfiable (empty numeric
/// range, or conflicting equality constants on any column).
bool FilterIsContradictory(const std::vector<ScalarExprPtr>& conjuncts) {
  std::map<ColumnId, Range> ranges;
  std::map<ColumnId, Datum> eq_string;
  for (const auto& c : conjuncts) {
    if (c->kind() != ScalarKind::kBinary) continue;
    const auto& b = static_cast<const BinaryExprB&>(*c);
    const ScalarExprPtr* col_side = nullptr;
    const ScalarExprPtr* lit_side = nullptr;
    bool flipped = false;
    if (b.left()->kind() == ScalarKind::kColumn &&
        b.right()->kind() == ScalarKind::kLiteral) {
      col_side = &b.left();
      lit_side = &b.right();
    } else if (b.right()->kind() == ScalarKind::kColumn &&
               b.left()->kind() == ScalarKind::kLiteral) {
      col_side = &b.right();
      lit_side = &b.left();
      flipped = true;
    } else {
      continue;
    }
    ColumnId id = static_cast<const ColumnExpr&>(**col_side).id();
    const Datum& v = static_cast<const LiteralExprB&>(**lit_side).value();
    BinaryOp op = b.op();
    if (flipped) {
      switch (op) {
        case BinaryOp::kLt: op = BinaryOp::kGt; break;
        case BinaryOp::kLe: op = BinaryOp::kGe; break;
        case BinaryOp::kGt: op = BinaryOp::kLt; break;
        case BinaryOp::kGe: op = BinaryOp::kLe; break;
        default: break;
      }
    }
    double num;
    if (NumericLiteral(v, &num)) {
      Range& r = ranges[id];
      switch (op) {
        case BinaryOp::kEq:
          r.ApplyLow(num, true);
          r.ApplyHigh(num, true);
          break;
        case BinaryOp::kLt: r.ApplyHigh(num, false); break;
        case BinaryOp::kLe: r.ApplyHigh(num, true); break;
        case BinaryOp::kGt: r.ApplyLow(num, false); break;
        case BinaryOp::kGe: r.ApplyLow(num, true); break;
        default: break;
      }
      if (r.contradictory) return true;
    } else if (v.type() == TypeId::kVarchar && op == BinaryOp::kEq) {
      auto it = eq_string.find(id);
      if (it != eq_string.end() && it->second.Compare(v) != 0) return true;
      eq_string.emplace(id, v);
    }
  }
  return false;
}

LogicalOpPtr ContradictionPass(const LogicalOpPtr& op) {
  std::vector<LogicalOpPtr> children;
  for (const auto& c : op->children()) children.push_back(ContradictionPass(c));

  switch (op->kind()) {
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*op);
      if (children[0]->kind() == LogicalOpKind::kEmpty) return children[0];
      if (FilterIsContradictory(f.conjuncts())) {
        return std::make_shared<LogicalEmpty>(children[0]->OutputBindings());
      }
      return op->WithChildren(std::move(children));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*op);
      bool left_empty = children[0]->kind() == LogicalOpKind::kEmpty;
      bool right_empty = children[1]->kind() == LogicalOpKind::kEmpty;
      LogicalOpPtr rebuilt = op->WithChildren(
          {children[0], children[1]});
      switch (j.join_type()) {
        case LogicalJoinType::kInner:
        case LogicalJoinType::kCross:
        case LogicalJoinType::kSemi:
          if (left_empty || right_empty) {
            return std::make_shared<LogicalEmpty>(rebuilt->OutputBindings());
          }
          break;
        case LogicalJoinType::kAnti:
          if (left_empty) {
            return std::make_shared<LogicalEmpty>(rebuilt->OutputBindings());
          }
          if (right_empty) return children[0];
          break;
        case LogicalJoinType::kLeftOuter:
          if (left_empty) {
            return std::make_shared<LogicalEmpty>(rebuilt->OutputBindings());
          }
          if (right_empty) {
            // Left rows survive with NULL-padded right columns.
            std::vector<ProjectItem> items;
            for (const auto& b : children[0]->OutputBindings()) {
              items.push_back(ProjectItem{MakeColumn(b), b});
            }
            for (const auto& b : children[1]->OutputBindings()) {
              items.push_back(ProjectItem{MakeLiteral(Datum::Null()), b});
            }
            return std::make_shared<LogicalProject>(std::move(items),
                                                    children[0]);
          }
          break;
      }
      return rebuilt;
    }
    case LogicalOpKind::kProject:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kLimit: {
      if (!children.empty() && children[0]->kind() == LogicalOpKind::kEmpty) {
        LogicalOpPtr rebuilt = op->WithChildren(std::move(children));
        return std::make_shared<LogicalEmpty>(rebuilt->OutputBindings());
      }
      return op->WithChildren(std::move(children));
    }
    default:
      return op->WithChildren(std::move(children));
  }
}

// ---------------------------------------------------------------------------
// Pass 5: redundant join elimination.
// ---------------------------------------------------------------------------

std::string ToLowerName(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Adds the columns this operator itself consumes (predicates, projection
/// expressions, keys) to `out` — i.e. what its children must provide beyond
/// what the parent asked for.
void AddOwnColumnUses(const LogicalOp& op, std::set<ColumnId>* out) {
  switch (op.kind()) {
    case LogicalOpKind::kFilter:
      for (const auto& c : static_cast<const LogicalFilter&>(op).conjuncts()) {
        CollectColumns(c, out);
      }
      break;
    case LogicalOpKind::kProject:
      for (const auto& item : static_cast<const LogicalProject&>(op).items()) {
        CollectColumns(item.expr, out);
      }
      break;
    case LogicalOpKind::kJoin:
      for (const auto& c : static_cast<const LogicalJoin&>(op).conditions()) {
        CollectColumns(c, out);
      }
      break;
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(op);
      for (ColumnId id : a.group_by()) out->insert(id);
      for (const auto& agg : a.aggregates()) CollectColumns(agg.arg, out);
      break;
    }
    case LogicalOpKind::kSort:
      for (const auto& item : static_cast<const LogicalSort&>(op).items()) {
        out->insert(item.column);
      }
      break;
    case LogicalOpKind::kUnionAll:
      for (const auto& cols :
           static_cast<const LogicalUnionAll&>(op).child_columns()) {
        for (ColumnId id : cols) out->insert(id);
      }
      break;
    default:
      break;
  }
}

LogicalOpPtr EliminateRedundantJoins(const LogicalOpPtr& op,
                                     std::set<ColumnId> required,
                                     bool* changed) {
  if (op->kind() == LogicalOpKind::kJoin) {
    const auto& j = static_cast<const LogicalJoin&>(*op);
    if (j.join_type() == LogicalJoinType::kInner) {
      for (int side = 0; side < 2; ++side) {
        const LogicalOpPtr& keep = op->children()[side == 0 ? 0 : 1];
        const LogicalOpPtr& drop = op->children()[side == 0 ? 1 : 0];
        if (drop->kind() != LogicalOpKind::kGet) continue;
        const auto& get = static_cast<const LogicalGet&>(*drop);
        if (get.table() == nullptr || get.table()->primary_key.empty()) continue;
        std::set<ColumnId> drop_ids = BindingIds(get.bindings());
        // No column of the dropped side may be needed above the join.
        bool referenced_above = false;
        for (ColumnId id : required) {
          if (drop_ids.count(id) > 0) referenced_above = true;
        }
        if (referenced_above) continue;
        // Every condition must be an equality keep_col = drop_pk_col, and
        // together they must cover the entire primary key.
        std::set<std::string> pk_lower;
        for (const auto& pk : get.table()->primary_key) {
          pk_lower.insert(ToLowerName(pk));
        }
        std::set<std::string> covered;
        bool all_pk_equalities = !j.conditions().empty();
        for (const auto& cond : j.conditions()) {
          ColumnId a, b;
          if (!IsColumnEquality(cond, &a, &b)) {
            all_pk_equalities = false;
            break;
          }
          ColumnId drop_col = drop_ids.count(a) ? a : (drop_ids.count(b) ? b : kInvalidColumnId);
          ColumnId keep_col = drop_col == a ? b : a;
          if (drop_col == kInvalidColumnId || drop_ids.count(keep_col) > 0) {
            all_pk_equalities = false;
            break;
          }
          const ColumnBinding* binding = nullptr;
          for (const auto& bnd : get.bindings()) {
            if (bnd.id == drop_col) binding = &bnd;
          }
          if (binding == nullptr || pk_lower.count(ToLowerName(binding->name)) == 0) {
            all_pk_equalities = false;
            break;
          }
          covered.insert(ToLowerName(binding->name));
        }
        if (all_pk_equalities && covered == pk_lower) {
          *changed = true;
          return EliminateRedundantJoins(keep, std::move(required), changed);
        }
      }
    }
  }
  // Recurse, extending the required set with this operator's own column uses.
  std::set<ColumnId> child_required = required;
  AddOwnColumnUses(*op, &child_required);
  std::vector<LogicalOpPtr> children;
  for (const auto& c : op->children()) {
    children.push_back(EliminateRedundantJoins(c, child_required, changed));
  }
  return op->WithChildren(std::move(children));
}

// ---------------------------------------------------------------------------
// Pass 6: column pruning.
// ---------------------------------------------------------------------------

LogicalOpPtr PruneColumns(const LogicalOpPtr& op, std::set<ColumnId> required) {
  switch (op->kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(*op);
      std::vector<ColumnBinding> kept;
      for (const auto& b : get.bindings()) {
        bool needed = required.count(b.id) > 0;
        // Keep hash-distribution columns even when unreferenced: they carry
        // the scan's physical distribution property, which the PDW
        // optimizer exploits for collocation.
        if (!needed && get.table() != nullptr) {
          for (const std::string& dc : get.table()->distribution.columns) {
            if (EqualsIgnoreCase(b.name, dc)) needed = true;
          }
        }
        if (needed) kept.push_back(b);
      }
      // Keep the narrowest column when nothing is required (e.g. COUNT(*)),
      // so scans still produce rows.
      if (kept.empty() && !get.bindings().empty()) {
        const ColumnBinding* best = &get.bindings()[0];
        for (const auto& b : get.bindings()) {
          if (DefaultTypeWidth(b.type) < DefaultTypeWidth(best->type)) best = &b;
        }
        kept.push_back(*best);
      }
      return std::make_shared<LogicalGet>(get.table_name(), get.alias(),
                                          get.table(), std::move(kept));
    }
    case LogicalOpKind::kEmpty:
      return op;
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*op);
      std::vector<ProjectItem> kept;
      std::set<ColumnId> child_required;
      for (const auto& item : p.items()) {
        if (required.count(item.output.id) == 0) continue;
        kept.push_back(item);
        CollectColumns(item.expr, &child_required);
      }
      if (kept.empty() && !p.items().empty()) {
        kept.push_back(p.items()[0]);
        CollectColumns(p.items()[0].expr, &child_required);
      }
      LogicalOpPtr child = PruneColumns(op->children()[0], child_required);
      return std::make_shared<LogicalProject>(std::move(kept),
                                              std::move(child));
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(*op);
      std::vector<AggregateItem> kept;
      std::set<ColumnId> child_required;
      for (const auto& agg : a.aggregates()) {
        if (required.count(agg.output.id) == 0 && !a.aggregates().empty() &&
            !(a.aggregates().size() == 1 && a.group_by().empty())) {
          // Drop unused aggregate computations (but never turn a scalar
          // aggregate into a zero-column one).
          bool others_kept = false;
          for (const auto& other : a.aggregates()) {
            if (&other != &agg && required.count(other.output.id) > 0) {
              others_kept = true;
            }
          }
          if (others_kept || !a.group_by().empty()) continue;
        }
        kept.push_back(agg);
        CollectColumns(agg.arg, &child_required);
      }
      for (ColumnId id : a.group_by()) child_required.insert(id);
      LogicalOpPtr child = PruneColumns(op->children()[0], child_required);
      return std::make_shared<LogicalAggregate>(a.group_by(), std::move(kept),
                                                std::move(child));
    }
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kLimit: {
      std::set<ColumnId> child_required = required;
      AddOwnColumnUses(*op, &child_required);
      LogicalOpPtr child = PruneColumns(op->children()[0], child_required);
      return op->WithChildren({std::move(child)});
    }
    case LogicalOpKind::kUnionAll: {
      // No pruning through unions: outputs are positional.
      std::vector<LogicalOpPtr> children;
      std::set<ColumnId> child_required;
      AddOwnColumnUses(*op, &child_required);
      for (const auto& c : op->children()) {
        children.push_back(PruneColumns(c, child_required));
      }
      return op->WithChildren(std::move(children));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*op);
      std::set<ColumnId> needed = required;
      AddOwnColumnUses(*op, &needed);
      std::set<ColumnId> left_ids = BindingIds(op->children()[0]->OutputBindings());
      std::set<ColumnId> right_ids =
          BindingIds(op->children()[1]->OutputBindings());
      std::set<ColumnId> left_req;
      std::set<ColumnId> right_req;
      for (ColumnId id : needed) {
        if (left_ids.count(id) > 0) left_req.insert(id);
        if (right_ids.count(id) > 0) right_req.insert(id);
      }
      LogicalOpPtr left = PruneColumns(op->children()[0], std::move(left_req));
      LogicalOpPtr right = PruneColumns(op->children()[1], std::move(right_req));
      return std::make_shared<LogicalJoin>(j.join_type(), j.conditions(),
                                           std::move(left), std::move(right));
    }
  }
  return op;
}

}  // namespace

Result<LogicalOpPtr> Normalize(LogicalOpPtr root) {
  root = FoldConstantsPass(root);
  root = PushDown(std::move(root), {});
  bool derived = false;
  root = TransitivityClosurePass(root, &derived);
  if (derived) root = PushDown(std::move(root), {});
  root = ContradictionPass(root);
  auto top_columns = [&] {
    std::set<ColumnId> top;
    for (const auto& b : root->OutputBindings()) top.insert(b.id);
    return top;
  };
  bool eliminated = false;
  root = EliminateRedundantJoins(root, top_columns(), &eliminated);
  root = PruneColumns(root, top_columns());
  return root;
}

}  // namespace pdw
