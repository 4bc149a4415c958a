// Normal form for generalized tuples (Section 3.4 of the paper).
//
// Variable elimination with real-arithmetic rules is NOT sound for lrp
// constrained tuples (the paper's Figure 2 counterexample): the constraint
// polyhedron may contain real points with no lattice point nearby.  The
// paper's fix is a *normal form* (Definition 3.2): every non-constant column
// has the same period k, and constraints are aligned to multiples of k.
// Theorem 3.1 then shows real projection is exact.
//
// This module implements
//   * Theorem 3.2's normalization: split every lrp to a common period
//     (Lemma 3.1) and take the cross product of the splits;
//   * the "n-space" view of a normal-form tuple: substituting
//     X_i = c_i + k*n_i turns the restricted constraints on the X's into
//     difference constraints on the integer variables n_i (steps 3..5 of
//     Theorem 3.2 -- the floor-shift of step 5 happens in the translation),
//     on which DBM operations (feasibility, elimination) are exact;
//   * exact elimination of the columns that need no normal form at all
//     (EliminateFreeAndPinnedColumns): Figure 2's lattice gap cannot open
//     over a column whose lrp is all of Z, nor over one the constraints pin
//     to another column or a constant (X_d = X_j + a), whose existential is
//     one lrp intersection.  Both are projected on the closed DBM directly
//     and never split; Project, TupleIsEmpty and FirstPoint normalize only
//     the rest, each connected part of its constraint graph on its own
//     period (core/algebra.cc).

#ifndef ITDB_CORE_NORMALIZE_H_
#define ITDB_CORE_NORMALIZE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/relation.h"
#include "core/tuple.h"
#include "util/status.h"

namespace itdb {

/// Budgets for normalization blow-up (Appendix A.1: a tuple with periods
/// k_1..k_m splits into prod(k / k_i) tuples, worst case k^m).
struct NormalizeOptions {
  std::int64_t max_split_product = std::int64_t{1} << 20;
};

/// True iff every non-singleton lrp of `t` has the same period.  On success
/// `*period` receives that period (1 when all columns are singletons).
bool IsNormalForm(const GeneralizedTuple& t, std::int64_t* period);

/// lcm of the non-zero periods of `t` (1 when there are none).
Result<std::int64_t> CommonPeriod(const GeneralizedTuple& t);
/// lcm of the non-zero periods over all tuples of `r` (1 when none).
Result<std::int64_t> CommonPeriod(const GeneralizedRelation& r);

/// Theorem 3.2: an equivalent set of normal-form tuples.  Infeasible
/// combinations (step 4 of the theorem) are pruned.  Constant columns stay
/// constants.
Result<std::vector<GeneralizedTuple>> NormalizeTuple(
    const GeneralizedTuple& t, const NormalizeOptions& options = {});

/// Same, but to an explicitly given period (a positive multiple of every
/// non-zero period of `t`).
Result<std::vector<GeneralizedTuple>> NormalizeTupleToPeriod(
    const GeneralizedTuple& t, std::int64_t period,
    const NormalizeOptions& options = {});

/// The first tuple NormalizeTuple(t) returns, or nullopt when it returns
/// none: the same sweep in the same order, stopped at the first feasible
/// combination.  The split budget is checked exactly as NormalizeTuple
/// checks it; errors of combinations after the first survivor are not
/// reached.
Result<std::optional<GeneralizedTuple>> FirstNormalPiece(
    const GeneralizedTuple& t, const NormalizeOptions& options = {});

/// The result of EliminateFreeAndPinnedColumns: the columns that remain.
struct ExactElimination {
  /// The remaining columns in their original order, with the (possibly
  /// narrowed) lrps, the input's data, and the restriction of the closed
  /// constraint matrix (closed).
  GeneralizedTuple tuple;
  /// Original index of each remaining column.
  std::vector<int> columns;
  /// Original index of each eliminated column, in elimination order (a
  /// point of `tuple` lifts back through them in reverse order).
  std::vector<int> dropped;
};

/// Eliminates, without normalizing, every `eligible` column whose
/// existential is exact on the closed DBM (the rest of the tuple is kept as
/// is).  After closing the constraints it drops
///   * free columns: lrp period 1 (all of Z) or no constraint at all.  For
///     any integer point of the others, the closed matrix leaves the column
///     a nonempty interval with integer ends, so some lattice value fits;
///   * pinned columns: the closed DBM has X_d = X_j + a for another column
///     j.  Then exists X_d in lrp_d  <=>  X_j in lrp_d - a, so lrp_j is
///     replaced by lrp_j meet (lrp_d - a) (one CRT intersection, Section
///     3.2.1) and X_d's row is dropped.  A column pinned to a constant a is
///     dropped once lrp_d contains a.
/// Dropping a free column never narrows an lrp and dropping a pinned one
/// never frees another, so one pass per rule reaches the fixpoint.  Returns
/// nullopt when the tuple is provably empty: its constraints are infeasible,
/// a CRT meet is empty or a constant misses its lrp.  Fails only with
/// kOverflow.
Result<std::optional<ExactElimination>> EliminateFreeAndPinnedColumns(
    const GeneralizedTuple& t, const std::vector<bool>& eligible);

/// The integer-variable ("n-space") view of one normal-form tuple.
///
/// Columns with period k are parameterized as X_i = c_i + k*n_i; constant
/// columns keep their fixed value.  All restricted constraints of the tuple
/// translate into difference constraints on the n_i with floored bounds
/// (exact over Z).  Feasibility and projection on this view are exact
/// (Theorem 3.1).
class NSpaceTuple {
 public:
  /// Pre: IsNormalForm(t).  Fails with kInvalidArgument otherwise, and with
  /// kOverflow if bound arithmetic leaves the int64 range.
  static Result<NSpaceTuple> Build(const GeneralizedTuple& t);

  /// Whether the tuple denotes at least one concrete point.  Exact.
  bool feasible() const { return feasible_; }

  /// Projects away one (not yet dropped) column.  Exact by Theorem 3.1.
  /// Pre: feasible().
  Status EliminateColumn(int col);

  /// Rebuilds a generalized tuple whose temporal columns are the listed
  /// original columns in the given order (none may be dropped), with
  /// constraints translated back to X-space, and the given data values.
  /// Pre: feasible().
  Result<GeneralizedTuple> Rebuild(const std::vector<int>& columns,
                                   std::vector<Value> data) const;

  /// One concrete point of the tuple, one value per column in original
  /// order.  The n-variables are pinned in column order on a copy of the
  /// closed matrix, each to its lower bound if finite, else its upper
  /// bound, else 0, re-closing after each pin; since every bound of a
  /// closed integer difference system is its exact projection, each pin
  /// keeps the system feasible.  The point is X_i = c_i + k*n_i; constant
  /// columns keep their value.  Pre: feasible() and no column dropped.
  /// Fails with kOverflow if a bound or a value leaves the int64 range.
  Result<std::vector<std::int64_t>> FirstPoint() const;

 private:
  NSpaceTuple() : dbm_(0) {}

  std::int64_t period_ = 1;
  std::vector<std::int64_t> offsets_;   // c_i per column
  std::vector<int> var_of_column_;      // n-var index, or -1 for constants
  std::vector<bool> dropped_;
  Dbm dbm_;                             // over the n-vars, closed
  bool feasible_ = true;
};

}  // namespace itdb

#endif  // ITDB_CORE_NORMALIZE_H_
