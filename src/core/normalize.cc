#include "core/normalize.h"

#include <cstddef>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/numeric.h"
#include "util/thread_pool.h"

namespace itdb {

namespace {

/// Steps 3..5 of Theorem 3.2 for one normal-form tuple with columns `lrps`.
/// Writing X_i = c_i + k*n_i (or the constant c_i), the atomic
/// X_p - X_q <= a of the closed X-space system becomes a difference/unary/
/// ground constraint on the n's with bound floor((a - c_p + c_q)/k): exact
/// over the integers because n_p, n_q are integers.  Adds each to `dbm`;
/// a ground or same-variable contradiction clears `feasible` and the
/// translation goes on, so a later overflow status still surfaces.
Status TranslateToNSpace(const std::vector<AtomicConstraint>& atomics,
                         const std::vector<Lrp>& lrps,
                         const std::vector<int>& var_of_column, std::int64_t k,
                         Dbm& dbm, bool& feasible) {
  for (const AtomicConstraint& c : atomics) {
    std::int64_t rhs = c.bound;
    int vp = -1;
    int vq = -1;
    if (c.lhs != kZeroVar) {
      ITDB_ASSIGN_OR_RETURN(
          rhs, CheckedSub(rhs, lrps[static_cast<std::size_t>(c.lhs)].offset()));
      vp = var_of_column[static_cast<std::size_t>(c.lhs)];
    }
    if (c.rhs != kZeroVar) {
      ITDB_ASSIGN_OR_RETURN(
          rhs, CheckedAdd(rhs, lrps[static_cast<std::size_t>(c.rhs)].offset()));
      vq = var_of_column[static_cast<std::size_t>(c.rhs)];
    }
    if (vp >= 0 && vq >= 0) {
      if (vp == vq) {
        // Same lrp variable on both sides: k*n - k*n <= rhs.
        if (rhs < 0) feasible = false;
        continue;
      }
      dbm.AddDifferenceUpperBound(vp, vq, FloorDiv(rhs, k));
    } else if (vp >= 0) {
      dbm.AddUpperBound(vp, FloorDiv(rhs, k));
    } else if (vq >= 0) {
      // -k * n_q <= rhs.
      dbm.AddAtomic(AtomicConstraint{kZeroVar, vq, FloorDiv(rhs, k)});
    } else {
      // Ground: 0 <= rhs.
      if (rhs < 0) feasible = false;
    }
  }
  return Status::Ok();
}

/// The n-variable index of each column of `t` (-1 for constant columns)
/// and, in `*num_vars`, how many n-variables there are.
std::vector<int> VariableLayout(const GeneralizedTuple& t, int* num_vars) {
  std::vector<int> var_of_column(static_cast<std::size_t>(t.temporal_arity()),
                                 -1);
  *num_vars = 0;
  for (std::size_t i = 0; i < var_of_column.size(); ++i) {
    if (t.lrp(static_cast<int>(i)).period() != 0) {
      var_of_column[i] = (*num_vars)++;
    }
  }
  return var_of_column;
}

}  // namespace

bool IsNormalForm(const GeneralizedTuple& t, std::int64_t* period) {
  std::int64_t k = 0;
  for (const Lrp& l : t.temporal()) {
    if (l.period() == 0) continue;
    if (k == 0) {
      k = l.period();
    } else if (k != l.period()) {
      return false;
    }
  }
  if (period != nullptr) *period = k == 0 ? 1 : k;
  return true;
}

Result<std::int64_t> CommonPeriod(const GeneralizedTuple& t) {
  std::int64_t k = 1;
  for (const Lrp& l : t.temporal()) {
    if (l.period() == 0) continue;
    ITDB_ASSIGN_OR_RETURN(k, Lcm(k, l.period()));
  }
  return k;
}

Result<std::int64_t> CommonPeriod(const GeneralizedRelation& r) {
  std::int64_t k = 1;
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(std::int64_t kt, CommonPeriod(t));
    ITDB_ASSIGN_OR_RETURN(k, Lcm(k, kt));
  }
  return k;
}

Result<std::vector<GeneralizedTuple>> NormalizeTuple(
    const GeneralizedTuple& t, const NormalizeOptions& options) {
  ITDB_ASSIGN_OR_RETURN(std::int64_t k, CommonPeriod(t));
  return NormalizeTupleToPeriod(t, k, options);
}

Result<std::vector<GeneralizedTuple>> NormalizeTupleToPeriod(
    const GeneralizedTuple& t, std::int64_t period,
    const NormalizeOptions& options) {
  if (period <= 0) {
    return Status::InvalidArgument("normalization period must be positive");
  }
  int m = t.temporal_arity();
  // Split every infinite column to the target period (Lemma 3.1); constant
  // columns contribute the single choice {c}.
  std::vector<std::vector<Lrp>> choices;
  choices.reserve(static_cast<std::size_t>(m));
  __int128 product = 1;
  for (int i = 0; i < m; ++i) {
    const Lrp& l = t.lrp(i);
    if (l.period() == 0) {
      choices.push_back({l});
    } else {
      ITDB_ASSIGN_OR_RETURN(std::vector<Lrp> split, l.SplitToPeriod(period));
      product *= static_cast<__int128>(split.size());
      choices.push_back(std::move(split));
    }
    if (product > static_cast<__int128>(options.max_split_product)) {
      return Status::ResourceExhausted(
          "normalization to period " + std::to_string(period) +
          " would produce more than " +
          std::to_string(options.max_split_product) + " tuples");
    }
  }
  // Cross product of the splits (step 2 of Theorem 3.2); constraints are
  // carried over unchanged in X-space -- the floor-alignment of steps 3..5
  // happens in the n-space translation NSpaceTuple::Build also uses, which
  // prunes infeasible combinations (step 4).  Combinations are enumerated
  // by a linear index decoded in mixed radix with the LAST column least
  // significant, which is exactly the sequential odometer order;
  // feasibility checks are independent per combination, so the sweep fans
  // out over the thread pool with index-ordered merging (byte-identical to
  // the sequential loop).
  const std::int64_t total = static_cast<std::int64_t>(product);
  {
    static obs::Counter* calls =
        obs::MetricsRegistry::Global().GetCounter("normalize.calls");
    static obs::Histogram* split =
        obs::MetricsRegistry::Global().GetHistogram("normalize.split_product");
    calls->Increment();
    split->Record(total);
  }
  // NSpaceTuple::Build on a candidate would close a fresh copy of the SAME
  // X-space system and derive the same variable layout before any
  // candidate-specific work, so both are hoisted out of the sweep.  Each
  // candidate then translates the bounds against its chosen offsets and
  // closes one small n-space system, in Build's order: the surviving
  // tuples and every error status are exactly those of Build.
  Dbm x_closed = t.constraints();
  ITDB_RETURN_IF_ERROR(x_closed.Close());
  if (!x_closed.feasible()) return std::vector<GeneralizedTuple>{};
  int num_vars = 0;
  const std::vector<int> var_of_column = VariableLayout(t, &num_vars);
  const std::vector<AtomicConstraint> atomics = x_closed.ToAtomics();
  return ParallelAppend<GeneralizedTuple>(
      total, ParallelOptions{options.threads, /*grain=*/64},
      [&](std::int64_t index, std::vector<GeneralizedTuple>& out) -> Status {
        std::vector<Lrp> lrps(static_cast<std::size_t>(m));
        std::int64_t rest = index;
        for (int i = m - 1; i >= 0; --i) {
          const std::vector<Lrp>& column = choices[static_cast<std::size_t>(i)];
          const std::int64_t size = static_cast<std::int64_t>(column.size());
          lrps[static_cast<std::size_t>(i)] =
              column[static_cast<std::size_t>(rest % size)];
          rest /= size;
        }
        Dbm dbm(num_vars);
        bool feasible = true;
        ITDB_RETURN_IF_ERROR(TranslateToNSpace(atomics, lrps, var_of_column,
                                               period, dbm, feasible));
        ITDB_RETURN_IF_ERROR(dbm.Close());
        if (!feasible || !dbm.feasible()) return Status::Ok();
        GeneralizedTuple candidate(std::move(lrps), t.data());
        candidate.set_constraints(t.constraints());
        out.push_back(std::move(candidate));
        return Status::Ok();
      });
}

Result<std::optional<ExactElimination>> EliminateFreeAndPinnedColumns(
    const GeneralizedTuple& t, const std::vector<bool>& eligible) {
  using MaybeRest = std::optional<ExactElimination>;
  Dbm dbm = t.constraints();
  ITDB_RETURN_IF_ERROR(dbm.Close());
  if (!dbm.feasible()) return MaybeRest();
  std::vector<Lrp> lrps = t.temporal();
  std::vector<int> columns(lrps.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    columns[i] = static_cast<int>(i);
  }
  std::vector<bool> candidate = eligible;
  auto drop = [&](int v) {
    const auto at = static_cast<std::ptrdiff_t>(v);
    dbm = dbm.EliminateVariable(v);
    lrps.erase(lrps.begin() + at);
    columns.erase(columns.begin() + at);
    candidate.erase(candidate.begin() + at);
  };
  // Node p of the matrix is variable p - 1; node 0 is the constant zero.
  auto unconstrained = [&dbm](int p) {
    for (int q = 0; q <= dbm.num_vars(); ++q) {
      if (q != p && (dbm.bound_node(p, q) != Dbm::kInf ||
                     dbm.bound_node(q, p) != Dbm::kInf)) {
        return false;
      }
    }
    return true;
  };
  for (int v = 0; v < dbm.num_vars();) {
    if (candidate[static_cast<std::size_t>(v)] &&
        (lrps[static_cast<std::size_t>(v)].period() == 1 ||
         unconstrained(v + 1))) {
      drop(v);
    } else {
      ++v;
    }
  }
  for (int v = 0; v < dbm.num_vars();) {
    const int p = v + 1;
    int pin = -1;  // Node q with X_v = node_q + bound(p, q).
    if (candidate[static_cast<std::size_t>(v)]) {
      for (int q = 0; q <= dbm.num_vars() && pin < 0; ++q) {
        const std::int64_t up = dbm.bound_node(p, q);
        const std::int64_t down = dbm.bound_node(q, p);
        if (q != p && up != Dbm::kInf && down != Dbm::kInf && up + down == 0) {
          pin = q;
        }
      }
    }
    if (pin < 0) {
      ++v;
      continue;
    }
    const Lrp& own = lrps[static_cast<std::size_t>(v)];
    const std::int64_t a = dbm.bound_node(p, pin);
    if (pin == 0) {
      if (!own.Contains(a)) return MaybeRest();
    } else {
      // X_j + a in lrp_v  <=>  X_j in lrp_v - a.
      ITDB_ASSIGN_OR_RETURN(std::int64_t shifted, CheckedSub(own.offset(), a));
      Lrp& partner = lrps[static_cast<std::size_t>(pin - 1)];
      ITDB_ASSIGN_OR_RETURN(
          std::optional<Lrp> meet,
          Lrp::Intersect(partner, Lrp::Make(shifted, own.period())));
      if (!meet.has_value()) return MaybeRest();
      partner = *meet;
    }
    drop(v);
  }
  GeneralizedTuple rest(std::move(lrps), t.data());
  rest.set_constraints(std::move(dbm));
  return MaybeRest(ExactElimination{std::move(rest), std::move(columns)});
}

Result<NSpaceTuple> NSpaceTuple::Build(const GeneralizedTuple& t) {
  std::int64_t period = 1;
  if (!IsNormalForm(t, &period)) {
    return Status::InvalidArgument(
        "NSpaceTuple requires a normal-form tuple; got " + t.ToString());
  }
  NSpaceTuple out;
  out.period_ = period;
  int m = t.temporal_arity();
  out.offsets_.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    out.offsets_[static_cast<std::size_t>(i)] = t.lrp(i).offset();
  }
  int num_vars = 0;
  out.var_of_column_ = VariableLayout(t, &num_vars);
  out.dropped_.assign(static_cast<std::size_t>(m), false);
  Dbm dbm(num_vars);
  // Close the X-space system first: a contradiction over the reals (or the
  // degenerate zero-variable contradiction flag) already proves emptiness.
  Dbm x_closed = t.constraints();
  ITDB_RETURN_IF_ERROR(x_closed.Close());
  if (!x_closed.feasible()) {
    out.feasible_ = false;
    out.dbm_ = std::move(dbm);
    return out;
  }
  ITDB_RETURN_IF_ERROR(TranslateToNSpace(x_closed.ToAtomics(), t.temporal(),
                                         out.var_of_column_, period, dbm,
                                         out.feasible_));
  ITDB_RETURN_IF_ERROR(dbm.Close());
  if (!dbm.feasible()) out.feasible_ = false;
  out.dbm_ = std::move(dbm);
  return out;
}

Status NSpaceTuple::EliminateColumn(int col) {
  if (col < 0 || col >= num_columns() ||
      dropped_[static_cast<std::size_t>(col)]) {
    return Status::InvalidArgument("EliminateColumn: bad column " +
                                   std::to_string(col));
  }
  if (!feasible_) {
    return Status::InvalidArgument(
        "EliminateColumn on an infeasible tuple");
  }
  int var = var_of_column_[static_cast<std::size_t>(col)];
  dropped_[static_cast<std::size_t>(col)] = true;
  if (var < 0) return Status::Ok();  // Constant column: nothing to project.
  dbm_ = dbm_.EliminateVariable(var);
  var_of_column_[static_cast<std::size_t>(col)] = -1;
  for (int& v : var_of_column_) {
    if (v > var) --v;
  }
  return Status::Ok();
}

Result<GeneralizedTuple> NSpaceTuple::Rebuild(const std::vector<int>& columns,
                                              std::vector<Value> data) const {
  if (!feasible_) {
    return Status::InvalidArgument("Rebuild on an infeasible tuple");
  }
  const std::int64_t k = period_;
  std::vector<Lrp> lrps;
  lrps.reserve(columns.size());
  // new_var_pos[v]: position in `columns` of the column owning n-var v.
  std::vector<int> column_of_var(static_cast<std::size_t>(dbm_.num_vars()), -1);
  for (std::size_t pos = 0; pos < columns.size(); ++pos) {
    int col = columns[pos];
    if (col < 0 || col >= num_columns() ||
        dropped_[static_cast<std::size_t>(col)]) {
      return Status::InvalidArgument("Rebuild: bad or dropped column " +
                                     std::to_string(col));
    }
    std::int64_t c = offsets_[static_cast<std::size_t>(col)];
    int var = var_of_column_[static_cast<std::size_t>(col)];
    if (var < 0) {
      lrps.push_back(Lrp::Singleton(c));
    } else {
      lrps.push_back(Lrp::Make(c, k));
      column_of_var[static_cast<std::size_t>(var)] = static_cast<int>(pos);
    }
  }
  GeneralizedTuple out(std::move(lrps), std::move(data));
  // Translate the (minimal) n-space constraints back to X-space:
  //   n_p - n_q <= b   ->   X_p - X_q <= k*b + c_p - c_q
  //   n_p <= b         ->   X_p <= k*b + c_p
  //   -n_q <= b        ->   X_q >= c_q - k*b.
  Dbm x_constraints(static_cast<int>(columns.size()));
  for (const AtomicConstraint& a : dbm_.MinimalAtomics()) {
    // Skip constraints mentioning n-vars whose column is not kept: callers
    // must have eliminated those columns first.
    int pos_l = a.lhs == kZeroVar
                    ? kZeroVar
                    : column_of_var[static_cast<std::size_t>(a.lhs)];
    int pos_r = a.rhs == kZeroVar
                    ? kZeroVar
                    : column_of_var[static_cast<std::size_t>(a.rhs)];
    if ((a.lhs != kZeroVar && pos_l < 0) || (a.rhs != kZeroVar && pos_r < 0)) {
      return Status::InvalidArgument(
          "Rebuild: constraints mention a column not in the keep list; "
          "eliminate it first");
    }
    ITDB_ASSIGN_OR_RETURN(std::int64_t bound, CheckedMul(k, a.bound));
    if (pos_l != kZeroVar) {
      ITDB_ASSIGN_OR_RETURN(
          bound,
          CheckedAdd(bound, offsets_[static_cast<std::size_t>(
                                columns[static_cast<std::size_t>(pos_l)])]));
    }
    if (pos_r != kZeroVar) {
      ITDB_ASSIGN_OR_RETURN(
          bound,
          CheckedSub(bound, offsets_[static_cast<std::size_t>(
                                columns[static_cast<std::size_t>(pos_r)])]));
    }
    x_constraints.AddAtomic(AtomicConstraint{pos_l, pos_r, bound});
  }
  out.set_constraints(std::move(x_constraints));
  return out;
}

Result<GeneralizedTuple> NSpaceTuple::RebuildAll(
    std::vector<Value> data) const {
  std::vector<int> columns;
  for (int i = 0; i < num_columns(); ++i) {
    if (!dropped_[static_cast<std::size_t>(i)]) columns.push_back(i);
  }
  return Rebuild(columns, std::move(data));
}

}  // namespace itdb
