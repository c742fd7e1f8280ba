#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "engine/batch.h"
#include "engine/executor.h"
#include "engine/expr_program.h"
#include "engine/hash_table.h"
#include "obs/metrics.h"

/// The vectorized batch execution engine. Plans execute operator-at-a-time
/// over ColumnBatches instead of row-at-a-time over Datums:
///
///  - expressions are compiled once per operator into ExprPrograms with
///    resolved ordinals; filters fuse their conjuncts into an in-place
///    selection-vector shrink (no materialization between conjuncts);
///  - hash joins and aggregates run on flat open-addressing tables with
///    precomputed key columns (engine/hash_table.h);
///  - each operator emits one column batch plus a selection vector.
///    Columns an operator does not change are forwarded, not copied: a
///    scan shares the stored table's columns, a projection of bare column
///    references forwards its input's, and a join forwards its probe
///    columns when it emits every probe row once and in order;
///  - a node's plan runs on the thread that calls it: the appliance's
///    parallelism is one task per compute node, as in Fig. 1. The
///    aggregate runs one group table over its input in stream order, so
///    its first-seen group order and its sums match the row engine's.
///
/// Semantics match the row interpreter in executor.cc — same evaluation
/// sets per (row, expression), same NULL and error behaviour — so the two
/// engines are interchangeable and differential-testable (RowSetsEqual).

namespace pdw {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fully executed operator: one column batch plus the selection vector
/// of its active rows, in emission order. Filters shrink `sel` without
/// touching the batch; sorts reorder it.
struct BatchResult {
  ColumnBatch batch;
  SelVector sel;
};

struct BatchExecCtx {
  const TableProvider& tables;
  ExecProfile* profile = nullptr;
};

std::vector<TypeId> TypesOf(const std::vector<ColumnBinding>& cols) {
  std::vector<TypeId> types;
  types.reserve(cols.size());
  for (const ColumnBinding& b : cols) types.push_back(b.type);
  return types;
}

SelVector IdentitySel(size_t n) {
  SelVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<int32_t>(i);
  return sel;
}

/// True iff `sel` selects every one of `rows` rows in order. Must be an
/// explicit check — sort emits permuted selections where size alone says
/// nothing.
bool IsIdentity(const SelVector& sel, size_t rows) {
  if (sel.size() != rows) return false;
  for (size_t i = 0; i < rows; ++i) {
    if (sel[i] != static_cast<int32_t>(i)) return false;
  }
  return true;
}

/// The active rows of `in` as a dense batch: its own columns when every
/// row is active in order, else one gather per column (hash-join build
/// sides, union children).
ColumnBatch DenseBatch(const BatchResult& in) {
  if (IsIdentity(in.sel, in.batch.rows)) return in.batch;
  ColumnBatch out;
  out.columns.reserve(in.batch.columns.size());
  for (const ColumnVector& c : in.batch.columns) {
    out.columns.push_back(Gather(c, in.sel));
  }
  out.rows = in.sel.size();
  return out;
}

/// Materializes the active rows as Datum rows (client boundary, nested
/// loops).
RowVector RowsFromResult(const BatchResult& in) {
  RowVector rows;
  rows.reserve(in.sel.size());
  for (int32_t r : in.sel) {
    Row row;
    row.reserve(in.batch.columns.size());
    for (const ColumnVector& col : in.batch.columns) {
      row.push_back(col.GetDatum(static_cast<size_t>(r)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A result whose selection is every row of `batch`.
BatchResult SelectAll(ColumnBatch batch) {
  BatchResult r;
  r.sel = IdentitySel(batch.rows);
  r.batch = std::move(batch);
  return r;
}

/// Ordinal of each column id of `cols` (compile-time resolution).
Result<int> OrdinalOf(const std::vector<ColumnBinding>& cols, ColumnId id,
                      const char* what) {
  int pos = FindBinding(cols, id);
  if (pos < 0) return Status::Internal(std::string(what));
  return pos;
}

Result<std::vector<ExprProgram>> CompilePrograms(
    const std::vector<ScalarExprPtr>& exprs,
    const std::vector<ColumnBinding>& input) {
  std::vector<ExprProgram> progs;
  progs.reserve(exprs.size());
  for (const ScalarExprPtr& e : exprs) {
    PDW_ASSIGN_OR_RETURN(ExprProgram p, ExprProgram::Compile(e, input));
    progs.push_back(std::move(p));
  }
  return progs;
}

Result<BatchResult> ExecBatchNode(const PlanNode& plan, const BatchExecCtx& ctx,
                                  int depth);

// --- scan ---

Result<BatchResult> ExecScan(const PlanNode& node, const BatchExecCtx& ctx) {
  PDW_ASSIGN_OR_RETURN(TableData data, ctx.tables.GetTableData(node.table_name));
  const ColumnBatch& stored = *data.columns;
  ColumnBatch out;
  out.columns.reserve(node.output.size());
  for (const auto& b : node.output) {
    int pos = data.schema->FindColumn(b.name);
    if (pos < 0) {
      return Status::Internal("scan column '" + b.name +
                              "' missing from table '" + node.table_name +
                              "' (" + data.schema->ToString() + ")");
    }
    out.columns.push_back(stored.columns[static_cast<size_t>(pos)]);
  }
  out.rows = stored.rows;
  return SelectAll(std::move(out));
}

// --- filter ---

Result<BatchResult> ExecFilter(const PlanNode& node, BatchResult input,
                               double* selectivity) {
  PDW_ASSIGN_OR_RETURN(std::vector<ExprProgram> progs,
                       CompilePrograms(node.conjuncts, node.output));
  size_t rows_in = input.sel.size();
  // Conjuncts shrink the selection in order: each one only sees the
  // previous one's survivors, exactly like the interpreter's per-row
  // short-circuit over the conjunct list.
  for (const ExprProgram& p : progs) {
    if (input.sel.empty()) break;
    PDW_RETURN_NOT_OK(p.Filter(input.batch, &input.sel));
  }
  if (rows_in > 0) {
    *selectivity =
        static_cast<double>(input.sel.size()) / static_cast<double>(rows_in);
  }
  return input;
}

// --- project ---

Result<BatchResult> ExecProject(const PlanNode& node, BatchResult input,
                                const std::vector<ColumnBinding>& child_cols) {
  // Bare column references forward the input's columns and selection.
  std::vector<int> refs;
  for (const ProjectItem& item : node.items) {
    if (item.expr->kind() != ScalarKind::kColumn) break;
    PDW_ASSIGN_OR_RETURN(
        int pos,
        OrdinalOf(child_cols, static_cast<const ColumnExpr&>(*item.expr).id(),
                  "projected column missing from input"));
    refs.push_back(pos);
  }
  if (refs.size() == node.items.size()) {
    BatchResult result;
    result.batch.columns.reserve(refs.size());
    for (int pos : refs) {
      result.batch.columns.push_back(
          input.batch.columns[static_cast<size_t>(pos)]);
    }
    result.batch.rows = input.batch.rows;
    result.sel = std::move(input.sel);
    return result;
  }
  std::vector<ExprProgram> progs;
  progs.reserve(node.items.size());
  for (const ProjectItem& item : node.items) {
    PDW_ASSIGN_OR_RETURN(ExprProgram p,
                         ExprProgram::Compile(item.expr, child_cols));
    progs.push_back(std::move(p));
  }
  ColumnBatch out;
  out.columns.reserve(progs.size());
  for (const ExprProgram& p : progs) {
    PDW_ASSIGN_OR_RETURN(ColumnVector col, p.Eval(input.batch, input.sel));
    out.columns.push_back(std::move(col));
  }
  out.rows = input.sel.size();
  return SelectAll(std::move(out));
}

// --- joins ---

/// True for conjuncts that restate an extracted equi-key pair; the hash
/// table enforces exact key equality, so re-evaluating them per match is
/// redundant.
bool IsEquiKeyConjunct(const ScalarExprPtr& c,
                       const std::vector<std::pair<ColumnId, ColumnId>>& keys) {
  ColumnId a, b;
  if (!IsColumnEquality(c, &a, &b)) return false;
  for (const auto& [l, r] : keys) {
    if ((a == l && b == r) || (a == r && b == l)) return true;
  }
  return false;
}

Result<BatchResult> ExecHashJoin(const PlanNode& node, const BatchResult& left,
                                 const BatchResult& right,
                                 const std::vector<ColumnBinding>& left_cols,
                                 const std::vector<ColumnBinding>& right_cols,
                                 double* selectivity) {
  LogicalJoinType jt = node.join_type;
  bool emit_right = jt == LogicalJoinType::kInner ||
                    jt == LogicalJoinType::kCross ||
                    jt == LogicalJoinType::kLeftOuter;

  // Residuals are the conjuncts beyond the equi keys, evaluated over the
  // concatenated (left ++ right) row layout.
  std::vector<ColumnBinding> combined = left_cols;
  combined.insert(combined.end(), right_cols.begin(), right_cols.end());
  std::vector<ScalarExprPtr> residual_exprs;
  for (const ScalarExprPtr& c : node.conjuncts) {
    if (!IsEquiKeyConjunct(c, node.equi_keys)) residual_exprs.push_back(c);
  }
  PDW_ASSIGN_OR_RETURN(std::vector<ExprProgram> residuals,
                       CompilePrograms(residual_exprs, combined));

  std::vector<int> l_key_ords, r_key_ords;
  for (const auto& [a, b] : node.equi_keys) {
    PDW_ASSIGN_OR_RETURN(int lo,
                         OrdinalOf(left_cols, a, "join key missing from left"));
    PDW_ASSIGN_OR_RETURN(
        int ro, OrdinalOf(right_cols, b, "join key missing from right"));
    l_key_ords.push_back(lo);
    r_key_ords.push_back(ro);
  }

  // Build side: one dense batch, whose key columns the table shares.
  ColumnBatch build = DenseBatch(right);
  std::vector<ColumnVector> build_keys;
  build_keys.reserve(r_key_ords.size());
  for (int o : r_key_ords) build_keys.push_back(build.columns[static_cast<size_t>(o)]);
  JoinHashTable table;
  table.Build(std::move(build_keys));

  const ColumnBatch& probe = left.batch;
  const SelVector& probe_sel = left.sel;
  std::vector<const ColumnVector*> probe_keys;
  probe_keys.reserve(l_key_ords.size());
  for (int o : l_key_ords) {
    probe_keys.push_back(&probe.columns[static_cast<size_t>(o)]);
  }

  // Emission list: probe row index + build row index (-1 = null pad /
  // probe-only emission), in probe order.
  std::vector<int32_t> emit_l, emit_b;

  if (residuals.empty()) {
    for (int32_t l : probe_sel) {
      size_t lr = static_cast<size_t>(l);
      bool has_null = false;
      for (const ColumnVector* k : probe_keys) {
        if (k->IsNull(lr)) {
          has_null = true;
          break;
        }
      }
      bool matched = false;
      if (!has_null) {
        for (int32_t b = table.FindFirst(probe_keys, lr); b >= 0;
             b = table.Next(b)) {
          matched = true;
          if (jt == LogicalJoinType::kSemi || jt == LogicalJoinType::kAnti) {
            break;
          }
          emit_l.push_back(l);
          emit_b.push_back(b);
        }
      }
      if ((jt == LogicalJoinType::kSemi && matched) ||
          (jt == LogicalJoinType::kAnti && !matched) ||
          (jt == LogicalJoinType::kLeftOuter && !matched)) {
        emit_l.push_back(l);
        emit_b.push_back(-1);
      }
    }
  } else {
    // Candidate pairs first, then the residual predicate vectorized over
    // the paired batch, then per-probe-row join-type logic.
    std::vector<int32_t> pl, pr;
    std::vector<std::pair<size_t, size_t>> range(probe_sel.size());
    for (size_t k = 0; k < probe_sel.size(); ++k) {
      int32_t l = probe_sel[k];
      size_t lr = static_cast<size_t>(l);
      size_t start = pl.size();
      bool has_null = false;
      for (const ColumnVector* kc : probe_keys) {
        if (kc->IsNull(lr)) {
          has_null = true;
          break;
        }
      }
      if (!has_null) {
        for (int32_t b = table.FindFirst(probe_keys, lr); b >= 0;
             b = table.Next(b)) {
          pl.push_back(l);
          pr.push_back(b);
        }
      }
      range[k] = {start, pl.size()};
    }
    ColumnBatch pairs;
    pairs.columns.reserve(combined.size());
    for (const ColumnVector& c : probe.columns) {
      pairs.columns.push_back(Gather(c, pl));
    }
    for (const ColumnVector& c : build.columns) {
      pairs.columns.push_back(Gather(c, pr));
    }
    pairs.rows = pl.size();
    SelVector psel = IdentitySel(pl.size());
    for (const ExprProgram& p : residuals) {
      PDW_RETURN_NOT_OK(p.Filter(pairs, &psel));
      if (psel.empty()) break;
    }
    std::vector<uint8_t> survived(pl.size(), 0);
    for (int32_t idx : psel) survived[static_cast<size_t>(idx)] = 1;
    for (size_t k = 0; k < probe_sel.size(); ++k) {
      int32_t l = probe_sel[k];
      bool matched = false;
      for (size_t idx = range[k].first; idx < range[k].second; ++idx) {
        if (!survived[idx]) continue;
        matched = true;
        if (jt == LogicalJoinType::kSemi || jt == LogicalJoinType::kAnti) {
          break;
        }
        emit_l.push_back(l);
        emit_b.push_back(pr[idx]);
      }
      if ((jt == LogicalJoinType::kSemi && matched) ||
          (jt == LogicalJoinType::kAnti && !matched) ||
          (jt == LogicalJoinType::kLeftOuter && !matched)) {
        emit_l.push_back(l);
        emit_b.push_back(-1);
      }
    }
  }

  // Output columns: the probe's are forwarded when every probe row is
  // emitted once and in order, gathered otherwise; the build's are
  // gathered by the emission list.
  ColumnBatch out;
  out.columns.reserve(left_cols.size() + (emit_right ? right_cols.size() : 0));
  bool forward_probe = IsIdentity(emit_l, probe.rows);
  for (const ColumnVector& c : probe.columns) {
    out.columns.push_back(forward_probe ? c : Gather(c, emit_l));
  }
  if (emit_right) {
    for (const ColumnVector& c : build.columns) {
      out.columns.push_back(Gather(c, emit_b));
    }
  }
  out.rows = emit_l.size();
  if (!probe_sel.empty()) {
    *selectivity = static_cast<double>(emit_l.size()) /
                   static_cast<double>(probe_sel.size());
  }
  return SelectAll(std::move(out));
}

Result<BatchResult> ExecNestedLoopJoin(
    const PlanNode& node, const BatchResult& left, const BatchResult& right,
    const std::vector<ColumnBinding>& left_cols,
    const std::vector<ColumnBinding>& right_cols) {
  LogicalJoinType jt = node.join_type;
  bool emit_right = jt == LogicalJoinType::kInner ||
                    jt == LogicalJoinType::kCross ||
                    jt == LogicalJoinType::kLeftOuter;
  std::vector<ColumnBinding> combined = left_cols;
  combined.insert(combined.end(), right_cols.begin(), right_cols.end());
  PDW_ASSIGN_OR_RETURN(std::vector<ExprProgram> progs,
                       CompilePrograms(node.conjuncts, combined));

  // Nested loops run row-at-a-time (cross products have no vector shape),
  // but still through compiled ordinal-resolved programs.
  RowVector lrows = RowsFromResult(left);
  RowVector rrows = RowsFromResult(right);
  RowVector out;
  auto pair_matches = [&](const Row& both) -> Result<bool> {
    for (const ExprProgram& p : progs) {
      PDW_ASSIGN_OR_RETURN(Datum v, p.EvalRow(both));
      if (v.is_null() || !v.bool_value()) return false;
    }
    return true;
  };
  auto emit = [&](const Row& l, const Row* r) {
    Row row = l;
    if (emit_right) {
      if (r != nullptr) {
        row.insert(row.end(), r->begin(), r->end());
      } else {
        for (size_t i = 0; i < right_cols.size(); ++i) row.push_back(Datum::Null());
      }
    }
    out.push_back(std::move(row));
  };
  for (const Row& l : lrows) {
    bool matched = false;
    for (const Row& r : rrows) {
      Row both = l;
      both.insert(both.end(), r.begin(), r.end());
      PDW_ASSIGN_OR_RETURN(bool ok, pair_matches(both));
      if (!ok) continue;
      matched = true;
      if (jt == LogicalJoinType::kSemi || jt == LogicalJoinType::kAnti) break;
      emit(l, &r);
    }
    if ((jt == LogicalJoinType::kSemi && matched) ||
        (jt == LogicalJoinType::kAnti && !matched) ||
        (jt == LogicalJoinType::kLeftOuter && !matched)) {
      emit(l, nullptr);
    }
  }

  ColumnBatch batch(TypesOf(node.output));
  AppendRowsToBatch(out, &batch);
  return SelectAll(std::move(batch));
}

// --- aggregation ---

/// Accumulator for one (group, aggregate) pair; same semantics as the row
/// engine's AggState. DISTINCT aggregates keep only the value set — counts
/// and sums are derived from it at finalize.
struct AggAccumulator {
  Datum value;
  int64_t count = 0;
  std::set<Datum, DatumLess> distinct;
};

void AccumulateValue(AggFunc func, const Datum& v, AggAccumulator* state) {
  switch (func) {
    case AggFunc::kCount:
      state->count += 1;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (state->value.is_null()) {
        state->value = v;
      } else if (state->value.type() == TypeId::kInt &&
                 v.type() == TypeId::kInt) {
        state->value = Datum::Int(state->value.int_value() + v.int_value());
      } else {
        state->value = Datum::Double(state->value.AsDouble() + v.AsDouble());
      }
      state->count += 1;
      break;
    case AggFunc::kMin:
      if (state->value.is_null() || v.Compare(state->value) < 0) state->value = v;
      break;
    case AggFunc::kMax:
      if (state->value.is_null() || v.Compare(state->value) > 0) state->value = v;
      break;
    default:
      break;
  }
}

Result<BatchResult> ExecAggregate(const PlanNode& node, const BatchResult& input,
                                  const std::vector<ColumnBinding>& child_cols) {
  std::vector<int> group_ords;
  std::vector<TypeId> key_types;
  for (ColumnId g : node.group_by) {
    int pos = FindBinding(child_cols, g);
    if (pos < 0) {
      return Status::Internal("group-by column missing from aggregate input");
    }
    group_ords.push_back(pos);
    key_types.push_back(child_cols[static_cast<size_t>(pos)].type);
  }
  size_t num_aggs = node.aggregates.size();
  std::vector<ExprProgram> arg_progs(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (node.aggregates[a].func == AggFunc::kCountStar) continue;
    PDW_ASSIGN_OR_RETURN(
        arg_progs[a], ExprProgram::Compile(node.aggregates[a].arg, child_cols));
  }

  // One group table over the whole input, in stream order: first-seen
  // group order and every sum's addition order are the row engine's.
  GroupTable groups(key_types);
  const ColumnBatch& batch = input.batch;
  const SelVector& sel = input.sel;
  std::vector<const ColumnVector*> keys;
  keys.reserve(group_ords.size());
  for (int o : group_ords) keys.push_back(&batch.columns[static_cast<size_t>(o)]);
  // Aggregate arguments evaluate densely over the selection once.
  std::vector<ColumnVector> args(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!arg_progs[a].valid()) continue;
    PDW_ASSIGN_OR_RETURN(args[a], arg_progs[a].Eval(batch, sel));
  }
  // Group indices for the whole input first, then one typed pass per
  // aggregate — column-at-a-time, no per-row Datum materialization on the
  // numeric fast paths.
  size_t n = sel.size();
  std::vector<uint32_t> gidx(n);
  for (size_t k = 0; k < n; ++k) {
    gidx[k] = static_cast<uint32_t>(
        groups.FindOrInsert(keys, static_cast<size_t>(sel[k])));
  }
  size_t ng = groups.num_groups();
  std::vector<AggAccumulator> states(ng * num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateItem& item = node.aggregates[a];
    auto state_of = [&](size_t g) -> AggAccumulator& {
      return states[g * num_aggs + a];
    };
    if (item.func == AggFunc::kCountStar) {
      for (size_t k = 0; k < n; ++k) state_of(gidx[k]).count += 1;
      continue;
    }
    const ColumnVector& arg = args[a];
    if (item.distinct) {
      for (size_t k = 0; k < n; ++k) {
        if (!arg.IsNull(k)) {
          state_of(gidx[k]).distinct.insert(arg.GetDatum(k));
        }
      }
      continue;
    }
    switch (item.func) {
      case AggFunc::kCount:
        for (size_t k = 0; k < n; ++k) {
          if (!arg.IsNull(k)) state_of(gidx[k]).count += 1;
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        // Typed accumulators only when both storage and declared type are
        // unambiguous (a true INT column sums as int64, like the row
        // engine's int+int rule; a true DOUBLE column as double).
        if (arg.tag() == VecTag::kInt64 && arg.declared_type() == TypeId::kInt) {
          std::vector<int64_t> acc(ng, 0);
          std::vector<int64_t> cnt(ng, 0);
          for (size_t k = 0; k < n; ++k) {
            if (arg.IsNull(k)) continue;
            acc[gidx[k]] += arg.i64(k);
            cnt[gidx[k]] += 1;
          }
          for (size_t g = 0; g < ng; ++g) {
            if (cnt[g] == 0) continue;
            state_of(g).value = Datum::Int(acc[g]);
            state_of(g).count = cnt[g];
          }
        } else if (arg.tag() == VecTag::kDouble &&
                   arg.declared_type() == TypeId::kDouble) {
          std::vector<double> acc(ng, 0);
          std::vector<int64_t> cnt(ng, 0);
          for (size_t k = 0; k < n; ++k) {
            if (arg.IsNull(k)) continue;
            acc[gidx[k]] += arg.f64(k);
            cnt[gidx[k]] += 1;
          }
          for (size_t g = 0; g < ng; ++g) {
            if (cnt[g] == 0) continue;
            state_of(g).value = Datum::Double(acc[g]);
            state_of(g).count = cnt[g];
          }
        } else {
          for (size_t k = 0; k < n; ++k) {
            if (arg.IsNull(k)) continue;
            AccumulateValue(item.func, arg.GetDatum(k), &state_of(gidx[k]));
          }
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (arg.tag() != VecTag::kVariant) {
          // Track the winning row per group; only the winners become
          // Datums. Strict comparisons keep the first-seen row on ties,
          // like the interpreter. Raw int64 order matches Datum::Compare
          // for INT, DATE and BOOL payloads alike.
          std::vector<int64_t> best(ng, -1);
          bool want_min = item.func == AggFunc::kMin;
          for (size_t k = 0; k < n; ++k) {
            if (arg.IsNull(k)) continue;
            int64_t b = best[gidx[k]];
            if (b < 0) {
              best[gidx[k]] = static_cast<int64_t>(k);
              continue;
            }
            size_t bi = static_cast<size_t>(b);
            bool better = false;
            switch (arg.tag()) {
              case VecTag::kInt64:
                better = want_min ? arg.i64(k) < arg.i64(bi)
                                  : arg.i64(k) > arg.i64(bi);
                break;
              case VecTag::kDouble:
                better = want_min ? arg.f64(k) < arg.f64(bi)
                                  : arg.f64(k) > arg.f64(bi);
                break;
              default:
                better = want_min ? arg.str(k) < arg.str(bi)
                                  : arg.str(bi) < arg.str(k);
                break;
            }
            if (better) best[gidx[k]] = static_cast<int64_t>(k);
          }
          for (size_t g = 0; g < ng; ++g) {
            if (best[g] >= 0) {
              state_of(g).value = arg.GetDatum(static_cast<size_t>(best[g]));
            }
          }
        } else {
          for (size_t k = 0; k < n; ++k) {
            if (arg.IsNull(k)) continue;
            AccumulateValue(item.func, arg.GetDatum(k), &state_of(gidx[k]));
          }
        }
        break;
      default:
        break;
    }
  }

  // Finalize into one output batch: group keys then aggregate results.
  ColumnBatch out(TypesOf(node.output));
  for (size_t c = 0; c < group_ords.size(); ++c) {
    out.columns[c].AppendRangeFrom(groups.group_keys()[c], 0, ng);
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateItem& item = node.aggregates[a];
    ColumnVector& dst = out.columns[group_ords.size() + a];
    dst.Reserve(ng);
    for (size_t g = 0; g < ng; ++g) {
      const AggAccumulator& state = states[g * num_aggs + a];
      if (item.distinct) {
        // Derive the result from the distinct set.
        if (item.func == AggFunc::kCount) {
          dst.Append(Datum::Int(static_cast<int64_t>(state.distinct.size())));
        } else if (state.distinct.empty()) {
          dst.AppendNull();
        } else if (item.func == AggFunc::kMin) {
          dst.Append(*state.distinct.begin());
        } else if (item.func == AggFunc::kMax) {
          dst.Append(*state.distinct.rbegin());
        } else {  // kSum / kAvg
          Datum sum;
          for (const Datum& v : state.distinct) {
            if (sum.is_null()) {
              sum = v;
            } else if (sum.type() == TypeId::kInt && v.type() == TypeId::kInt) {
              sum = Datum::Int(sum.int_value() + v.int_value());
            } else {
              sum = Datum::Double(sum.AsDouble() + v.AsDouble());
            }
          }
          if (item.func == AggFunc::kAvg) {
            dst.Append(Datum::Double(
                sum.AsDouble() / static_cast<double>(state.distinct.size())));
          } else {
            dst.Append(sum);
          }
        }
        continue;
      }
      switch (item.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          dst.Append(Datum::Int(state.count));
          break;
        case AggFunc::kAvg:
          if (state.count > 0) {
            dst.Append(Datum::Double(state.value.AsDouble() /
                                     static_cast<double>(state.count)));
          } else {
            dst.AppendNull();
          }
          break;
        default:
          dst.Append(state.value);
      }
    }
  }
  out.rows = ng;
  // Scalar aggregate over empty input: one row of initial values.
  if (group_ords.empty() && ng == 0) {
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggregateItem& item = node.aggregates[a];
      ColumnVector& dst = out.columns[a];
      if (item.func == AggFunc::kCountStar ||
          item.func == AggFunc::kCount) {
        dst.Append(Datum::Int(0));
      } else {
        dst.AppendNull();
      }
    }
    out.rows = 1;
  }
  return SelectAll(std::move(out));
}

// --- sort / limit / union ---

Result<BatchResult> ExecSort(const PlanNode& node, BatchResult input) {
  std::vector<std::pair<const ColumnVector*, bool>> keys;
  for (const SortItem& item : node.sort_items) {
    int pos = FindBinding(node.output, item.column);
    if (pos < 0) return Status::Internal("sort column missing from input");
    keys.emplace_back(&input.batch.columns[static_cast<size_t>(pos)],
                      item.ascending);
  }
  // The sort order is the selection: stable over emission order, so ties
  // keep their input order.
  std::stable_sort(input.sel.begin(), input.sel.end(),
                   [&](int32_t a, int32_t b) {
                     for (const auto& [col, asc] : keys) {
                       int c = CompareAt(*col, static_cast<size_t>(a), *col,
                                         static_cast<size_t>(b));
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return input;
}

BatchResult ExecLimit(const PlanNode& node, BatchResult input) {
  if (node.limit >= 0 && input.sel.size() > static_cast<size_t>(node.limit)) {
    input.sel.resize(static_cast<size_t>(node.limit));
  }
  return input;
}

Result<BatchResult> ExecUnionAll(const PlanNode& node, const BatchExecCtx& ctx,
                                 int depth) {
  // The children's active rows, concatenated into one batch in child order.
  ColumnBatch out(TypesOf(node.output));
  for (size_t i = 0; i < node.children.size(); ++i) {
    PDW_ASSIGN_OR_RETURN(BatchResult child,
                         ExecBatchNode(*node.children[i], ctx, depth + 1));
    ColumnBatch dense = DenseBatch(child);
    for (size_t c = 0; c < node.union_inputs[i].size(); ++c) {
      int pos = FindBinding(node.children[i]->output, node.union_inputs[i][c]);
      if (pos < 0) {
        return Status::Internal("union input column missing from child");
      }
      out.columns[c].AppendRangeFrom(dense.columns[static_cast<size_t>(pos)],
                                     0, dense.rows);
    }
    out.rows += dense.rows;
  }
  return SelectAll(std::move(out));
}

// --- dispatch + profiling ---

Result<BatchResult> DispatchBatchNode(const PlanNode& plan,
                                      const BatchExecCtx& ctx, int depth,
                                      double* selectivity) {
  switch (plan.kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kTempScan:
      return ExecScan(plan, ctx);
    case PhysOpKind::kEmpty:
      return SelectAll(ColumnBatch(TypesOf(plan.output)));
    case PhysOpKind::kFilter: {
      PDW_ASSIGN_OR_RETURN(BatchResult input,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      return ExecFilter(plan, std::move(input), selectivity);
    }
    case PhysOpKind::kProject: {
      PDW_ASSIGN_OR_RETURN(BatchResult input,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      return ExecProject(plan, std::move(input), plan.children[0]->output);
    }
    case PhysOpKind::kHashJoin:
    case PhysOpKind::kNestedLoopJoin: {
      PDW_ASSIGN_OR_RETURN(BatchResult left,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      PDW_ASSIGN_OR_RETURN(BatchResult right,
                           ExecBatchNode(*plan.children[1], ctx, depth + 1));
      if (!plan.equi_keys.empty()) {
        return ExecHashJoin(plan, left, right, plan.children[0]->output,
                            plan.children[1]->output, selectivity);
      }
      return ExecNestedLoopJoin(plan, left, right, plan.children[0]->output,
                                plan.children[1]->output);
    }
    case PhysOpKind::kHashAggregate: {
      PDW_ASSIGN_OR_RETURN(BatchResult input,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      return ExecAggregate(plan, input, plan.children[0]->output);
    }
    case PhysOpKind::kSort: {
      PDW_ASSIGN_OR_RETURN(BatchResult input,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      return ExecSort(plan, std::move(input));
    }
    case PhysOpKind::kLimit: {
      PDW_ASSIGN_OR_RETURN(BatchResult input,
                           ExecBatchNode(*plan.children[0], ctx, depth + 1));
      return ExecLimit(plan, std::move(input));
    }
    case PhysOpKind::kUnionAll:
      return ExecUnionAll(plan, ctx, depth);
    case PhysOpKind::kMove:
      return Status::Internal(
          "executor reached a Move node; moves are executed by the DMS "
          "service, not the per-node engine");
  }
  return Status::Internal("unreachable plan kind in executor");
}

Result<BatchResult> ExecBatchNode(const PlanNode& plan, const BatchExecCtx& ctx,
                                  int depth) {
  double selectivity = -1;  // Output/input row ratio; -1 = not a filter.
  if (ctx.profile == nullptr) {
    return DispatchBatchNode(plan, ctx, depth, &selectivity);
  }
  // Reserve the record before recursing so operators stay in pre-order.
  size_t slot = ctx.profile->operators.size();
  ctx.profile->operators.emplace_back();
  double t0 = NowSeconds();
  Result<BatchResult> result =
      DispatchBatchNode(plan, ctx, depth, &selectivity);
  obs::OperatorProfile& op = ctx.profile->operators[slot];
  op.depth = depth;
  op.name = PhysOpKindToString(plan.kind);
  if (plan.kind == PhysOpKind::kTableScan ||
      plan.kind == PhysOpKind::kTempScan) {
    op.name += "(" + plan.table_name + ")";
  } else if (plan.kind == PhysOpKind::kHashAggregate &&
             plan.agg_phase != AggPhase::kFull) {
    op.name += plan.agg_phase == AggPhase::kLocal ? "(local)" : "(global)";
  }
  op.estimated_rows = plan.cardinality;
  op.seconds = NowSeconds() - t0;
  op.nodes = 1;
  op.selectivity = selectivity;
  if (result.ok()) op.actual_rows = static_cast<double>(result->sel.size());
  return result;
}

}  // namespace

Result<RowVector> ExecutePlan(const PlanNode& plan,
                              const TableProvider& tables,
                              ExecProfile* profile) {
  BatchExecCtx ctx{tables, profile};
  PDW_ASSIGN_OR_RETURN(BatchResult result, ExecBatchNode(plan, ctx, 0));
  RowVector rows = RowsFromResult(result);
  if (profile != nullptr) {
    obs::MetricsRegistry::Global().Count("executor.rows_out",
                                         static_cast<double>(rows.size()));
  }
  return rows;
}

}  // namespace pdw
