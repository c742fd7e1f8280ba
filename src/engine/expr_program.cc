#include "engine/expr_program.h"

#include <cmath>
#include <map>
#include <utility>

#include "algebra/scalar_eval.h"

namespace pdw {

using sql::BinaryOp;

/// Compiled expression node: the bound ScalarExpr tree flattened into a
/// plain struct with every column reference resolved to an input ordinal.
/// `can_error` marks subtrees whose evaluation can fail (division/modulo by
/// zero, casts, functions, LIKE on non-strings); filter fusion only
/// short-circuits past conjuncts that cannot error, so the set of
/// (row, expression) evaluations that can raise matches the row engine's.
struct ExprProgram::Node {
  ScalarKind kind = ScalarKind::kLiteral;
  TypeId type = TypeId::kInvalid;
  int ordinal = -1;                   // kColumn
  Datum literal;                      // kLiteral
  BinaryOp bop = BinaryOp::kAnd;      // kBinary
  sql::UnaryOp uop = sql::UnaryOp::kNot;  // kUnary
  bool negated = false;               // kIsNull
  bool has_else = false;              // kCase
  bool can_error = false;
  std::string func_name;              // kFunction
  // kBinary: [left, right]; kUnary/kIsNull/kCast: [operand];
  // kCase: [when0, then0, when1, then1, ..., else?]; kFunction: args.
  std::vector<Node> children;
};

namespace {

using Node = ExprProgram::Node;

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArith(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

/// True for comparison verdicts that keep the row.
bool CmpKeeps(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Mirror of `a.Compare(b)` for the operand on the right of a flipped
/// comparison: `lit op col` becomes `col flipped(op) lit`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // =, <> are symmetric
  }
}

Status CompileInto(const ScalarExpr& e, const std::map<ColumnId, int>& ords,
                   Node* out) {
  out->kind = e.kind();
  out->type = e.type();
  switch (e.kind()) {
    case ScalarKind::kColumn: {
      const auto& c = static_cast<const ColumnExpr&>(e);
      auto it = ords.find(c.id());
      if (it == ords.end()) {
        return Status::Internal("unbound column " + c.ToString());
      }
      out->ordinal = it->second;
      return Status::OK();
    }
    case ScalarKind::kLiteral:
      out->literal = static_cast<const LiteralExprB&>(e).value();
      return Status::OK();
    case ScalarKind::kBinary: {
      const auto& b = static_cast<const BinaryExprB&>(e);
      out->bop = b.op();
      out->children.resize(2);
      PDW_RETURN_NOT_OK(CompileInto(*b.left(), ords, &out->children[0]));
      PDW_RETURN_NOT_OK(CompileInto(*b.right(), ords, &out->children[1]));
      out->can_error = out->children[0].can_error ||
                       out->children[1].can_error ||
                       b.op() == BinaryOp::kDiv || b.op() == BinaryOp::kMod ||
                       b.op() == BinaryOp::kLike ||
                       b.op() == BinaryOp::kNotLike;
      return Status::OK();
    }
    case ScalarKind::kUnary: {
      const auto& u = static_cast<const UnaryExprB&>(e);
      out->uop = u.op();
      out->children.resize(1);
      PDW_RETURN_NOT_OK(CompileInto(*u.operand(), ords, &out->children[0]));
      out->can_error = out->children[0].can_error;
      return Status::OK();
    }
    case ScalarKind::kIsNull: {
      const auto& n = static_cast<const IsNullExprB&>(e);
      out->negated = n.negated();
      out->children.resize(1);
      PDW_RETURN_NOT_OK(CompileInto(*n.operand(), ords, &out->children[0]));
      out->can_error = out->children[0].can_error;
      return Status::OK();
    }
    case ScalarKind::kCase: {
      const auto& c = static_cast<const CaseExprB&>(e);
      out->children.reserve(c.whens().size() * 2 + 1);
      for (const auto& [when, then] : c.whens()) {
        out->children.emplace_back();
        PDW_RETURN_NOT_OK(CompileInto(*when, ords, &out->children.back()));
        out->children.emplace_back();
        PDW_RETURN_NOT_OK(CompileInto(*then, ords, &out->children.back()));
      }
      if (c.else_expr()) {
        out->has_else = true;
        out->children.emplace_back();
        PDW_RETURN_NOT_OK(
            CompileInto(*c.else_expr(), ords, &out->children.back()));
      }
      for (const Node& ch : out->children) out->can_error |= ch.can_error;
      return Status::OK();
    }
    case ScalarKind::kCast: {
      const auto& c = static_cast<const CastExprB&>(e);
      out->children.resize(1);
      PDW_RETURN_NOT_OK(CompileInto(*c.operand(), ords, &out->children[0]));
      out->can_error = true;
      return Status::OK();
    }
    case ScalarKind::kFunction: {
      const auto& f = static_cast<const FunctionExprB&>(e);
      out->func_name = f.name();
      out->children.resize(f.args().size());
      for (size_t i = 0; i < f.args().size(); ++i) {
        PDW_RETURN_NOT_OK(CompileInto(*f.args()[i], ords, &out->children[i]));
      }
      out->can_error = true;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable scalar kind");
}

Status EvalNode(const Node& n, const ColumnBatch& batch, const SelVector& sel,
                ColumnVector* out);

/// Arithmetic over two dense operand vectors. Typed kernels for the INT/INT
/// and numeric/numeric cases; everything else (dates, bools, promoted
/// variants) goes value-wise through EvalBinaryOp so semantics — including
/// date day-arithmetic and div/mod-by-zero errors — match the row engine.
Status EvalArithVec(const Node& n, const ColumnVector& l, const ColumnVector& r,
                    ColumnVector* out) {
  size_t count = l.size();
  bool l_int = l.tag() == VecTag::kInt64 && l.declared_type() == TypeId::kInt;
  bool r_int = r.tag() == VecTag::kInt64 && r.declared_type() == TypeId::kInt;
  if (l_int && r_int && n.bop != BinaryOp::kDiv) {
    *out = ColumnVector(TypeId::kInt);
    out->Reserve(count);
    for (size_t k = 0; k < count; ++k) {
      if (l.IsNull(k) || r.IsNull(k)) {
        out->AppendNull();
        continue;
      }
      int64_t a = l.i64(k);
      int64_t b = r.i64(k);
      switch (n.bop) {
        case BinaryOp::kAdd: out->AppendI64(a + b); break;
        case BinaryOp::kSub: out->AppendI64(a - b); break;
        case BinaryOp::kMul: out->AppendI64(a * b); break;
        default:  // kMod
          if (b == 0) return Status::ExecutionError("modulo by zero");
          out->AppendI64(a % b);
      }
    }
    return Status::OK();
  }
  auto numeric = [](const ColumnVector& v) {
    return (v.tag() == VecTag::kInt64 || v.tag() == VecTag::kDouble) &&
           (v.declared_type() == TypeId::kInt ||
            v.declared_type() == TypeId::kDouble);
  };
  if (numeric(l) && numeric(r)) {
    *out = ColumnVector(TypeId::kDouble);
    out->Reserve(count);
    for (size_t k = 0; k < count; ++k) {
      if (l.IsNull(k) || r.IsNull(k)) {
        out->AppendNull();
        continue;
      }
      double a = l.NumericAt(k);
      double b = r.NumericAt(k);
      switch (n.bop) {
        case BinaryOp::kAdd: out->AppendF64(a + b); break;
        case BinaryOp::kSub: out->AppendF64(a - b); break;
        case BinaryOp::kMul: out->AppendF64(a * b); break;
        case BinaryOp::kDiv:
          if (b == 0) return Status::ExecutionError("division by zero");
          out->AppendF64(a / b);
          break;
        default:  // kMod
          if (b == 0) return Status::ExecutionError("modulo by zero");
          out->AppendF64(std::fmod(a, b));
      }
    }
    return Status::OK();
  }
  *out = ColumnVector(n.type);
  out->Reserve(count);
  for (size_t k = 0; k < count; ++k) {
    PDW_ASSIGN_OR_RETURN(Datum d,
                         EvalBinaryOp(n.bop, l.GetDatum(k), r.GetDatum(k)));
    out->Append(d);
  }
  return Status::OK();
}

Status EvalNode(const Node& n, const ColumnBatch& batch, const SelVector& sel,
                ColumnVector* out) {
  size_t count = sel.size();
  switch (n.kind) {
    case ScalarKind::kColumn: {
      const ColumnVector& col = batch.columns[static_cast<size_t>(n.ordinal)];
      // A selection of every row in order shares the column; any other
      // (a filter's subset, a sort's permutation) gathers it.
      bool identity = count == col.size();
      for (size_t k = 0; identity && k < count; ++k) {
        identity = sel[k] == static_cast<int32_t>(k);
      }
      *out = identity ? col : Gather(col, sel);
      return Status::OK();
    }
    case ScalarKind::kLiteral: {
      *out = ColumnVector(n.literal.type());
      out->Reserve(count);
      for (size_t k = 0; k < count; ++k) out->Append(n.literal);
      return Status::OK();
    }
    case ScalarKind::kBinary: {
      ColumnVector l, r;
      PDW_RETURN_NOT_OK(EvalNode(n.children[0], batch, sel, &l));
      PDW_RETURN_NOT_OK(EvalNode(n.children[1], batch, sel, &r));
      if (IsArith(n.bop)) return EvalArithVec(n, l, r, out);
      if (IsComparison(n.bop)) {
        *out = ColumnVector(TypeId::kBool);
        out->Reserve(count);
        for (size_t k = 0; k < count; ++k) {
          if (l.IsNull(k) || r.IsNull(k)) {
            out->AppendNull();
            continue;
          }
          out->AppendI64(CmpKeeps(n.bop, CompareAt(l, k, r, k)) ? 1 : 0);
        }
        return Status::OK();
      }
      // AND / OR / LIKE: value-wise; both operands are already evaluated
      // over the full selection, exactly like the row engine.
      *out = ColumnVector(n.type);
      out->Reserve(count);
      for (size_t k = 0; k < count; ++k) {
        PDW_ASSIGN_OR_RETURN(Datum d,
                             EvalBinaryOp(n.bop, l.GetDatum(k), r.GetDatum(k)));
        out->Append(d);
      }
      return Status::OK();
    }
    case ScalarKind::kUnary: {
      ColumnVector v;
      PDW_RETURN_NOT_OK(EvalNode(n.children[0], batch, sel, &v));
      *out = ColumnVector(n.type);
      out->Reserve(count);
      for (size_t k = 0; k < count; ++k) {
        PDW_ASSIGN_OR_RETURN(Datum d, EvalUnaryOp(n.uop, v.GetDatum(k)));
        out->Append(d);
      }
      return Status::OK();
    }
    case ScalarKind::kIsNull: {
      ColumnVector v;
      PDW_RETURN_NOT_OK(EvalNode(n.children[0], batch, sel, &v));
      *out = ColumnVector(TypeId::kBool);
      out->Reserve(count);
      for (size_t k = 0; k < count; ++k) {
        bool is_null = v.IsNull(k);
        out->AppendI64((n.negated ? !is_null : is_null) ? 1 : 0);
      }
      return Status::OK();
    }
    case ScalarKind::kCase: {
      // Split the remaining selection per WHEN so each branch is evaluated
      // over exactly the rows the row engine would evaluate it on.
      std::vector<Datum> dense(count);
      std::vector<int32_t> rem_pos(count);
      for (size_t k = 0; k < count; ++k) rem_pos[k] = static_cast<int32_t>(k);
      SelVector rem_sel = sel;
      size_t pairs = (n.children.size() - (n.has_else ? 1 : 0)) / 2;
      for (size_t p = 0; p < pairs && !rem_sel.empty(); ++p) {
        ColumnVector w;
        PDW_RETURN_NOT_OK(EvalNode(n.children[p * 2], batch, rem_sel, &w));
        std::vector<int32_t> hit_pos, next_pos;
        SelVector hit_sel, next_sel;
        for (size_t j = 0; j < rem_sel.size(); ++j) {
          Datum d = w.GetDatum(j);
          bool matched = !d.is_null() && d.bool_value();
          (matched ? hit_pos : next_pos).push_back(rem_pos[j]);
          (matched ? hit_sel : next_sel).push_back(rem_sel[j]);
        }
        if (!hit_sel.empty()) {
          ColumnVector t;
          PDW_RETURN_NOT_OK(
              EvalNode(n.children[p * 2 + 1], batch, hit_sel, &t));
          for (size_t j = 0; j < hit_pos.size(); ++j) {
            dense[static_cast<size_t>(hit_pos[j])] = t.GetDatum(j);
          }
        }
        rem_pos = std::move(next_pos);
        rem_sel = std::move(next_sel);
      }
      if (n.has_else && !rem_sel.empty()) {
        ColumnVector e;
        PDW_RETURN_NOT_OK(
            EvalNode(n.children.back(), batch, rem_sel, &e));
        for (size_t j = 0; j < rem_pos.size(); ++j) {
          dense[static_cast<size_t>(rem_pos[j])] = e.GetDatum(j);
        }
      }
      *out = ColumnVector(n.type);
      out->Reserve(count);
      for (const Datum& d : dense) out->Append(d);
      return Status::OK();
    }
    case ScalarKind::kCast: {
      ColumnVector v;
      PDW_RETURN_NOT_OK(EvalNode(n.children[0], batch, sel, &v));
      *out = ColumnVector(n.type);
      out->Reserve(count);
      for (size_t k = 0; k < count; ++k) {
        PDW_ASSIGN_OR_RETURN(Datum d, v.GetDatum(k).CastTo(n.type));
        out->Append(d);
      }
      return Status::OK();
    }
    case ScalarKind::kFunction: {
      std::vector<ColumnVector> argv(n.children.size());
      for (size_t i = 0; i < n.children.size(); ++i) {
        PDW_RETURN_NOT_OK(EvalNode(n.children[i], batch, sel, &argv[i]));
      }
      *out = ColumnVector(n.type);
      out->Reserve(count);
      std::vector<Datum> args(n.children.size());
      for (size_t k = 0; k < count; ++k) {
        for (size_t i = 0; i < argv.size(); ++i) args[i] = argv[i].GetDatum(k);
        PDW_ASSIGN_OR_RETURN(Datum d, EvalFunctionOp(n.func_name, args));
        out->Append(d);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable scalar kind");
}

/// col-vs-literal comparison kernel: keeps selected rows where the
/// comparison is TRUE. `op` is already oriented as `col op lit`.
void FilterColLit(const ColumnVector& col, BinaryOp op, const Datum& lit,
                  SelVector* sel) {
  if (lit.is_null()) {
    // comparison with NULL is NULL for every row: nothing survives.
    sel->clear();
    return;
  }
  size_t w = 0;
  TypeId lt = lit.type();
  if (col.tag() == VecTag::kInt64 &&
      (lt == TypeId::kInt || lt == TypeId::kDate || lt == TypeId::kBool)) {
    // Entire int64 plane: raw payload comparison matches Datum::Compare
    // (dates/bools are exact in double, ints compare as ints).
    int64_t lv = lt == TypeId::kBool ? static_cast<int64_t>(lit.bool_value())
                 : lt == TypeId::kDate
                     ? static_cast<int64_t>(lit.date_value())
                     : lit.int_value();
    for (int32_t r : *sel) {
      size_t i = static_cast<size_t>(r);
      if (col.IsNull(i)) continue;
      int64_t v = col.i64(i);
      int c = v < lv ? -1 : (v > lv ? 1 : 0);
      if (CmpKeeps(op, c)) (*sel)[w++] = r;
    }
    sel->resize(w);
    return;
  }
  if ((col.tag() == VecTag::kInt64 || col.tag() == VecTag::kDouble) &&
      (lt == TypeId::kInt || lt == TypeId::kDouble || lt == TypeId::kDate ||
       lt == TypeId::kBool)) {
    double lv = lit.AsDouble();
    for (int32_t r : *sel) {
      size_t i = static_cast<size_t>(r);
      if (col.IsNull(i)) continue;
      double v = col.NumericAt(i);
      int c = v < lv ? -1 : (v > lv ? 1 : 0);
      if (CmpKeeps(op, c)) (*sel)[w++] = r;
    }
    sel->resize(w);
    return;
  }
  if (col.tag() == VecTag::kString && lt == TypeId::kVarchar) {
    const std::string& lv = lit.string_value();
    for (int32_t r : *sel) {
      size_t i = static_cast<size_t>(r);
      if (col.IsNull(i)) continue;
      int c = col.str(i).compare(lv);
      if (CmpKeeps(op, c < 0 ? -1 : (c > 0 ? 1 : 0))) (*sel)[w++] = r;
    }
    sel->resize(w);
    return;
  }
  // Variant storage or mixed string/number: Datum-level comparison.
  ColumnVector lv(lt);
  lv.Append(lit);
  for (int32_t r : *sel) {
    size_t i = static_cast<size_t>(r);
    if (col.IsNull(i)) continue;
    if (CmpKeeps(op, CompareAt(col, i, lv, 0))) (*sel)[w++] = r;
  }
  sel->resize(w);
}

Status FilterNode(const Node& n, const ColumnBatch& batch, SelVector* sel) {
  if (sel->empty()) return Status::OK();
  if (n.kind == ScalarKind::kBinary) {
    if (n.bop == BinaryOp::kAnd && !n.children[1].can_error) {
      // Fused conjunction: the second conjunct only sees the first's
      // survivors. Allowed only when it cannot raise, so skipping rows
      // never hides an error the row engine would report.
      PDW_RETURN_NOT_OK(FilterNode(n.children[0], batch, sel));
      return FilterNode(n.children[1], batch, sel);
    }
    if (IsComparison(n.bop)) {
      const Node& l = n.children[0];
      const Node& r = n.children[1];
      if (l.kind == ScalarKind::kColumn && r.kind == ScalarKind::kLiteral) {
        FilterColLit(batch.columns[static_cast<size_t>(l.ordinal)], n.bop,
                     r.literal, sel);
        return Status::OK();
      }
      if (l.kind == ScalarKind::kLiteral && r.kind == ScalarKind::kColumn) {
        FilterColLit(batch.columns[static_cast<size_t>(r.ordinal)],
                     FlipComparison(n.bop), l.literal, sel);
        return Status::OK();
      }
      if (l.kind == ScalarKind::kColumn && r.kind == ScalarKind::kColumn) {
        const ColumnVector& a = batch.columns[static_cast<size_t>(l.ordinal)];
        const ColumnVector& b = batch.columns[static_cast<size_t>(r.ordinal)];
        size_t w = 0;
        for (int32_t row : *sel) {
          size_t i = static_cast<size_t>(row);
          // NULL comparisons are NULL (reject), so check before CompareAt,
          // which would call two NULLs equal.
          if (a.IsNull(i) || b.IsNull(i)) continue;
          if (CmpKeeps(n.bop, CompareAt(a, i, b, i))) (*sel)[w++] = row;
        }
        sel->resize(w);
        return Status::OK();
      }
    }
  }
  if (n.kind == ScalarKind::kIsNull &&
      n.children[0].kind == ScalarKind::kColumn) {
    const ColumnVector& col =
        batch.columns[static_cast<size_t>(n.children[0].ordinal)];
    size_t w = 0;
    for (int32_t row : *sel) {
      bool is_null = col.IsNull(static_cast<size_t>(row));
      if (n.negated ? !is_null : is_null) (*sel)[w++] = row;
    }
    sel->resize(w);
    return Status::OK();
  }
  // Generic: evaluate densely, keep TRUE rows.
  ColumnVector v;
  PDW_RETURN_NOT_OK(EvalNode(n, batch, *sel, &v));
  size_t w = 0;
  if (v.tag() == VecTag::kInt64) {
    for (size_t k = 0; k < sel->size(); ++k) {
      if (!v.IsNull(k) && v.i64(k) != 0) (*sel)[w++] = (*sel)[k];
    }
  } else {
    for (size_t k = 0; k < sel->size(); ++k) {
      Datum d = v.GetDatum(k);
      if (!d.is_null() && d.bool_value()) (*sel)[w++] = (*sel)[k];
    }
  }
  sel->resize(w);
  return Status::OK();
}

Result<Datum> EvalRowNode(const Node& n, const Row& row) {
  switch (n.kind) {
    case ScalarKind::kColumn:
      return row[static_cast<size_t>(n.ordinal)];
    case ScalarKind::kLiteral:
      return n.literal;
    case ScalarKind::kBinary: {
      PDW_ASSIGN_OR_RETURN(Datum l, EvalRowNode(n.children[0], row));
      PDW_ASSIGN_OR_RETURN(Datum r, EvalRowNode(n.children[1], row));
      return EvalBinaryOp(n.bop, l, r);
    }
    case ScalarKind::kUnary: {
      PDW_ASSIGN_OR_RETURN(Datum v, EvalRowNode(n.children[0], row));
      return EvalUnaryOp(n.uop, v);
    }
    case ScalarKind::kIsNull: {
      PDW_ASSIGN_OR_RETURN(Datum v, EvalRowNode(n.children[0], row));
      return Datum::Bool(n.negated ? !v.is_null() : v.is_null());
    }
    case ScalarKind::kCase: {
      size_t pairs = (n.children.size() - (n.has_else ? 1 : 0)) / 2;
      for (size_t p = 0; p < pairs; ++p) {
        PDW_ASSIGN_OR_RETURN(Datum w, EvalRowNode(n.children[p * 2], row));
        if (!w.is_null() && w.bool_value()) {
          return EvalRowNode(n.children[p * 2 + 1], row);
        }
      }
      if (n.has_else) return EvalRowNode(n.children.back(), row);
      return Datum::Null();
    }
    case ScalarKind::kCast: {
      PDW_ASSIGN_OR_RETURN(Datum v, EvalRowNode(n.children[0], row));
      return v.CastTo(n.type);
    }
    case ScalarKind::kFunction: {
      std::vector<Datum> args(n.children.size());
      for (size_t i = 0; i < n.children.size(); ++i) {
        PDW_ASSIGN_OR_RETURN(args[i], EvalRowNode(n.children[i], row));
      }
      return EvalFunctionOp(n.func_name, args);
    }
  }
  return Status::Internal("unreachable scalar kind");
}

}  // namespace

Result<ExprProgram> ExprProgram::Compile(
    const ScalarExprPtr& expr, const std::vector<ColumnBinding>& input) {
  if (!expr) return Status::Internal("cannot compile null expression");
  std::map<ColumnId, int> ords;
  for (size_t i = 0; i < input.size(); ++i) {
    ords.emplace(input[i].id, static_cast<int>(i));
  }
  auto root = std::make_shared<Node>();
  PDW_RETURN_NOT_OK(CompileInto(*expr, ords, root.get()));
  return ExprProgram(std::move(root));
}

TypeId ExprProgram::output_type() const {
  return root_ ? root_->type : TypeId::kInvalid;
}

Result<ColumnVector> ExprProgram::Eval(const ColumnBatch& batch,
                                       const SelVector& sel) const {
  ColumnVector out;
  PDW_RETURN_NOT_OK(EvalNode(*root_, batch, sel, &out));
  return out;
}

Status ExprProgram::Filter(const ColumnBatch& batch, SelVector* sel) const {
  return FilterNode(*root_, batch, sel);
}

Result<Datum> ExprProgram::EvalRow(const Row& row) const {
  return EvalRowNode(*root_, row);
}

}  // namespace pdw
