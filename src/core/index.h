// Indexed execution support for the binary algebra kernels.
//
// The paper costs every binary operation as a full product over tuple pairs
// (Tables 2-3), each pair paying lrp intersection plus a DBM closure.  This
// header factors the machinery that lets Join (whose pair kernel Intersect
// also runs) and Subtract visit only *candidate* pairs and reject most of
// those in O(1):
//
//   - DataKeyIndex: a hash partition of a relation's tuples keyed on the
//     values of selected data attributes, so equality on shared data columns
//     is resolved by bucket lookup instead of an inner-loop comparison.
//   - LrpIntersectionEmpty: the gcd residue-class test
//     {c1 + k1 Z} n {c2 + k2 Z} != {}  iff  c1 === c2 (mod gcd(k1, k2)),
//     mirroring exactly the emptiness decisions of Lrp::Intersect but
//     skipping the CRT arithmetic that builds the witness.
//   - TemporalHull: per-column bounding intervals read off a tuple's closed
//     DBM; two tuples whose hulls are disjoint on a shared column cannot
//     produce a feasible conjunction, so the pair is skipped before paying
//     Dbm::Conjoin + closure.
//   - ConjoinOntoClosed: incremental conjunction -- tighten a closed DBM by
//     the other side's constraints one atomic at a time in O(n^2) each
//     (Dbm::TightenAndClose), falling back to the full O(n^3) closure only
//     when bounds approach the overflow guard.
//
// Each piece only skips work whose outcome is already decided: a pruned
// pair is a pair whose conjunction is empty, and an incremental closure
// returns the matrix and status of the full one.  The kernels' semantics
// are pinned by the fuzz oracle's finite-baseline differential and by
// tests against GeneralizedTuple::Intersect and a plain pair loop.
// KernelCounters reports how much work each layer saved.

#ifndef ITDB_CORE_INDEX_H_
#define ITDB_CORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/dbm.h"
#include "core/lrp.h"
#include "core/relation.h"
#include "core/tuple.h"
#include "core/value.h"
#include "util/status.h"

namespace itdb {

/// Per-operation instrumentation for the indexed kernels.  Fields are
/// atomic so another thread (a benchmark's reporter) can read them while
/// a statement runs; wire an instance through AlgebraOptions::counters to
/// collect.
struct KernelCounters {
  /// Raw pair product a.size() * b.size() before the data-key partition.
  std::atomic<std::int64_t> pairs_total{0};
  /// Pairs surviving the data-key partition (what the budget charges).
  std::atomic<std::int64_t> pairs_candidate{0};
  /// Candidate pairs rejected by the gcd residue-class prefilter.
  std::atomic<std::int64_t> pairs_pruned_residue{0};
  /// Candidate pairs rejected by the bounding-interval hull prefilter.
  std::atomic<std::int64_t> pairs_pruned_hull{0};
  /// Conjunctions closed incrementally (O(n^2) per atomic).
  std::atomic<std::int64_t> closures_incremental{0};
  /// Conjunctions that fell back to the full Floyd-Warshall closure.
  std::atomic<std::int64_t> closures_full{0};
  /// Tuples dropped as equal to an earlier one of the same relation
  /// (GeneralizedRelation::KeepFirstOfEqual).
  std::atomic<std::int64_t> tuples_equal_dropped{0};

  void Reset();
};

/// Exact O(1) emptiness test for Lrp::Intersect(a, b): true iff the
/// intersection is the empty set.  Mirrors the emptiness decisions of
/// Lrp::Intersect code-path for code-path (singleton membership, gcd
/// residue), which all happen before the CRT witness construction -- so a
/// column pruned here is exactly one where Lrp::Intersect returns the empty
/// set, never one where it would have reported overflow.
bool LrpIntersectionEmpty(const Lrp& a, const Lrp& b);

namespace internal {

/// A by-reference probe key: the values of `*tuple` at data columns `*cols`,
/// hashed in place -- no per-probe key vector is ever materialized.
struct ProbeKey {
  const GeneralizedTuple* tuple;
  const std::vector<int>* cols;
};

struct ValueKeyHash {
  std::size_t operator()(const ProbeKey& key) const;
};

/// A hash of everything operator== on GeneralizedTuple compares: lrps,
/// data values and the constraint matrix.
std::uint64_t TupleHash(const GeneralizedTuple& t);

}  // namespace internal

/// A hash partition of a relation's tuples keyed on the Values of selected
/// data columns, stored flat: one CSR row-index array grouped by key plus an
/// open-addressing table of (hash, group) slots.  Building is two passes
/// over the rows with a constant number of allocations -- no per-row node or
/// key-vector allocation, which is what makes the per-operation index build
/// cheap enough for the indexed kernels to win on mid-size inputs.
///
/// Groups list tuple indices in ascending order, so probing a group
/// enumerates exactly the matching rows in row order -- the partition
/// changes which pairs are *visited*, never which pairs *match* or in what
/// sequence.  Table iteration order is never
/// observed, so the hash storage cannot leak into results.
///
/// An empty key column list degenerates to a single group holding every
/// tuple (the raw product), so callers need no special case for operations
/// without shared data attributes.  The index borrows `r`; it must not
/// outlive the relation it partitions.
class DataKeyIndex {
 public:
  /// Partitions `r` on the values of `key_cols` (data-column indices).
  DataKeyIndex(const GeneralizedRelation& r, std::vector<int> key_cols);

  /// Indices (ascending) of the tuples matching `probe`'s values at
  /// `probe_cols` (must be the same length as the key); empty when no tuple
  /// matches.  probe_cols[i] is the probe-side data column compared against
  /// key_cols[i].
  std::span<const std::size_t> Candidates(
      const GeneralizedTuple& probe, const std::vector<int>& probe_cols) const;

 private:
  bool KeysEqual(const GeneralizedTuple& probe,
                 const std::vector<int>& probe_cols,
                 std::size_t row) const;

  bool keyed_;  // False when key_cols is empty: one implicit group.
  std::vector<int> key_cols_;
  const GeneralizedRelation* rel_;
  /// Row indices grouped by key; group g occupies
  /// rows_[group_offsets_[g], group_offsets_[g+1]), ascending within.
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> group_offsets_;
  /// Open addressing (linear probing), power-of-two sized: slot s holds a
  /// group id in table_group_[s] (-1 = empty) and its key hash in
  /// table_hash_[s].  Keys compare against the group's first row.
  std::vector<std::uint64_t> table_hash_;
  std::vector<std::int64_t> table_group_;
  std::uint64_t table_mask_ = 0;
};

/// Per-column bounding intervals of a tuple's constraint polyhedron, read
/// off the closed DBM (row / column of the zero node).  `closed` doubles as
/// the cached closed matrix for the incremental-conjoin fast path.
///
/// Soundness of hull pruning: the hull only *relaxes* the DBM, so disjoint
/// hulls on any shared column imply the conjoined system is infeasible over
/// the reals -- pairs whose closed conjunction would be dropped anyway.  The
/// hull deliberately ignores lrp information: the DBM closure never sees
/// lrps either, and pruning on them would drop representation tuples whose
/// conjunction closes feasibly.
struct TemporalHull {
  /// Set when Close() succeeded on a copy of the tuple's constraints and the
  /// system is feasible; fast paths require it.
  std::optional<Dbm> closed;
  /// The constraints are infeasible over the integers (tuple denotes {}).
  bool infeasible = false;
  /// Whether Close() returned a status error (overflow): no fast path, the
  /// pair closes its raw conjunction in full to reproduce the error.
  bool close_failed = false;
  /// Inclusive bounds per temporal column; Dbm::kInf / -Dbm::kInf when
  /// unbounded.  Empty unless `closed` is set.
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;

  static TemporalHull Of(const GeneralizedTuple& t);

  bool usable() const { return closed.has_value(); }
};

/// True when hulls `a` and `b` are provably disjoint on some shared column
/// pair (cols[i] = {column in a's tuple, column in b's tuple}).  Requires
/// both hulls usable; returns false (no pruning) otherwise.
bool HullsDisjoint(const TemporalHull& a, const TemporalHull& b,
                   const std::vector<std::pair<int, int>>& cols);

/// The canonical closure of `closed_base` (closed, feasible) conjoined with
/// `addition` (same variable count, need not be closed).  Bit-identical in
/// matrix, feasibility, and status to
///     Dbm m = Dbm::Conjoin(closed_base, addition); m.Close();
/// but runs each of `addition`'s finite entries through the O(n^2)
/// incremental Dbm::TightenAndClose, re-running the full closure only when
/// the incremental step reports kFallbackNeeded.  May return an infeasible
/// (closed) DBM; callers test feasible().
Result<Dbm> ConjoinOntoClosed(const Dbm& closed_base, const Dbm& addition,
                              KernelCounters* counters);

}  // namespace itdb

#endif  // ITDB_CORE_INDEX_H_
