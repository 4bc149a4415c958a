// Conjunctions of restricted constraints as difference-bound matrices.
//
// The paper's restricted atomic constraints (Section 2.1)
//
//     Xi <= Xj + a,   Xi = Xj + a,   Xi <= a,   Xi >= a,   Xi = a
//
// are exactly difference constraints with unit coefficients.  A conjunction
// of such constraints over variables X0..X{n-1} is represented canonically
// by a difference-bound matrix (DBM) over n+1 nodes, where node 0 stands for
// the constant 0 and node i+1 for variable Xi: entry (p, q) is the tightest
// known upper bound on node_p - node_q.
//
// Because all coefficients are unit and all bounds integral, the constraint
// polyhedron is integral: Floyd-Warshall shortest-path closure yields the
// canonical form, a negative cycle is the exact integer-infeasibility
// criterion, and dropping a row/column of the closed matrix is exact
// variable elimination over the reals -- which Theorem 3.1 of the paper
// lifts to the integers once tuples are in normal form.

#ifndef ITDB_CORE_DBM_H_
#define ITDB_CORE_DBM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/small_vec.h"
#include "util/status.h"

namespace itdb {

/// Index of the distinguished "constant zero" pseudo-variable in
/// AtomicConstraint.
inline constexpr int kZeroVar = -1;

/// One restricted atomic constraint in difference form:
///   X(lhs) - X(rhs) <= bound,
/// where lhs / rhs may be kZeroVar, denoting the constant 0.  All five
/// syntactic forms of the paper reduce to one or two of these.
struct AtomicConstraint {
  int lhs = kZeroVar;
  int rhs = kZeroVar;
  std::int64_t bound = 0;

  /// The negation over the integers: not(x - y <= b)  <=>  y - x <= -b - 1.
  AtomicConstraint Negated() const { return {rhs, lhs, -bound - 1}; }

  /// Human-readable form, e.g. "X1 - X3 <= 4", "X2 <= -1", "-X1 <= 5".
  std::string ToString() const;

  friend bool operator==(const AtomicConstraint& a,
                         const AtomicConstraint& b) = default;
};

/// A conjunction of restricted constraints over a fixed number of variables.
///
/// Mutating methods (AddXxx) invalidate closure; call Close() before using
/// feasibility, elimination, implication, or minimal-atomic queries.
class Dbm {
 public:
  /// Sentinel for "no constraint".
  static constexpr std::int64_t kInf = INT64_MAX;

  /// Magnitude limit for finite bounds: Close() reports kOverflow when a
  /// derived bound leaves [-kBoundLimit, kBoundLimit].  The margin below
  /// INT64_MAX keeps saturating additions representable in __int128 and far
  /// from the kInf sentinel.  TightenAndClose applies the same limit, so
  /// its incremental closure and Close() agree on every overflow decision.
  static constexpr std::int64_t kBoundLimit = std::int64_t{1} << 61;

  /// Matrices of up to this many nodes (num_vars + 1) are stored inline in
  /// the Dbm object; larger ones take a single heap block.  Temporal arity
  /// 4 or less (the common case) therefore never allocates a matrix.
  static constexpr std::size_t kMaxInlineNodes = 5;

  /// An unconstrained system over `num_vars` variables.
  explicit Dbm(int num_vars);

  int num_vars() const { return num_vars_; }

  /// Adds X(i) - X(j) <= a.  Pre: i != j, both in range.
  void AddDifferenceUpperBound(int i, int j, std::int64_t a);
  /// Adds X(i) <= a.
  void AddUpperBound(int i, std::int64_t a);
  /// Adds X(i) >= a.
  void AddLowerBound(int i, std::int64_t a);
  /// Adds X(i) = X(j) + a (two inequalities).
  void AddDifferenceEquality(int i, int j, std::int64_t a);
  /// Adds X(i) = a.
  void AddEquality(int i, std::int64_t a);
  /// Adds one atomic constraint (kZeroVar handled).  A ground
  /// contradiction (0 <= b with b < 0) is stored as a negative diagonal
  /// entry on the zero node, so every copy of the matrix carries it.
  void AddAtomic(const AtomicConstraint& c);

  /// Floyd-Warshall closure.  Returns kOverflow if intermediate bounds leave
  /// the safe range (|bound| > 2^61).  After a successful Close(), closed()
  /// is true and feasible() reports integer satisfiability.
  Status Close();

  /// Outcome of TightenAndClose (incremental closure).
  enum class TightenResult {
    /// The matrix is again the canonical closure (possibly unchanged).
    kClosed,
    /// The constraint closed a negative cycle: closed() && !feasible().
    kInfeasible,
    /// A derived bound would leave the safe range; the matrix is UNCHANGED
    /// and the caller must fall back to AddAtomic + Close on a fresh copy.
    kFallbackNeeded,
  };

  /// Adds one atomic constraint to an already-closed feasible system and
  /// re-closes incrementally in O(n^2) instead of re-running the O(n^3)
  /// Floyd-Warshall: a shortest path that uses the new edge (p, q) once
  /// decomposes as i ->* p -> q ->* j over old shortest paths, and using it
  /// twice cannot help unless there is a negative cycle -- which, because
  /// the base was closed and feasible, must pass through the new edge and
  /// is detected exactly by bound(q, p) + w < 0.
  ///
  /// Pre: closed() && feasible().  On kClosed the matrix is bit-identical
  /// to what AddAtomic(c) + Close() would produce.
  TightenResult TightenAndClose(const AtomicConstraint& c);

  bool closed() const { return closed_; }
  /// Pre: closed().  False iff the constraint graph has a negative cycle.
  bool feasible() const { return feasible_; }

  /// Whether the concrete assignment x (size num_vars) satisfies every
  /// constraint.  Does not require closure.
  bool IsSatisfiedBy(const std::vector<std::int64_t>& x) const;

  /// Projects away variable i (Fourier-Motzkin via the closed matrix).
  /// Pre: closed() && feasible().  The result is closed.
  Dbm EliminateVariable(int i) const;

  /// Returns a copy with `count` additional unconstrained variables appended.
  Dbm AppendVariables(int count) const;

  /// Like AppendVariables, but preserves closure: appending unconstrained
  /// variables to a closed feasible matrix cannot create shorter paths, so
  /// the result is closed and feasible.  Pre: closed() && feasible().
  Dbm AppendVariablesClosed(int count) const;

  /// Returns a DBM over `new_size` variables where old variable i becomes
  /// new variable new_from_old[i].  Targets must be distinct and in range;
  /// unmapped new variables are unconstrained.  Negative diagonal entries
  /// (recorded contradictions) carry over.  The result, flags included, is
  /// what AddAtomic of each of ToAtomics(), renumbered, builds on a fresh
  /// matrix.
  Dbm MapVariables(const std::vector<int>& new_from_old, int new_size) const;

  /// Conjunction of two systems over the same variables (entrywise min).
  /// The result is not closed.
  static Dbm Conjoin(const Dbm& a, const Dbm& b);

  /// Rebuilds a Dbm from `(num_vars + 1)^2` node-major entries captured via
  /// bound_node(), restoring the exact closure/feasibility state.  This is
  /// the binary storage layer's round-trip primitive: it makes no
  /// canonicality assumption, so FromEntries(v, snapshot, closed(),
  /// feasible()) reproduces the source matrix bit for bit whatever state it
  /// was in.
  static Dbm FromEntries(int num_vars, const std::int64_t* entries,
                         bool closed, bool feasible);

  /// Raw entry access in node space (0 = zero node, i+1 = variable i):
  /// the upper bound on node_p - node_q, or kInf.
  std::int64_t bound_node(int p, int q) const {
    return matrix_[static_cast<std::size_t>(p) *
                       static_cast<std::size_t>(num_vars_ + 1) +
                   static_cast<std::size_t>(q)];
  }

  /// All finite off-diagonal entries as atomic constraints, plus each
  /// negative diagonal entry (a contradiction X - X <= b < 0, or 0 <= b < 0
  /// on the zero node).  On a closed matrix this list is canonical but
  /// redundant.
  std::vector<AtomicConstraint> ToAtomics() const;

  /// A minimal (irredundant) set of atomics whose conjunction is equivalent
  /// to this system.  Pre: closed() && feasible().  At most
  /// (num_vars)(num_vars+1) constraints, matching the bound the paper uses
  /// in Appendix A.
  std::vector<AtomicConstraint> MinimalAtomics() const;

  /// Whether every solution of *this satisfies `other` (same num_vars).
  /// Pre: closed() && feasible().
  bool Implies(const Dbm& other) const;

  /// Structural equality of matrices (use on closed DBMs for semantic
  /// equality of feasible systems).
  friend bool operator==(const Dbm& a, const Dbm& b) {
    return a.num_vars_ == b.num_vars_ && a.matrix_ == b.matrix_;
  }

  /// " && "-joined minimal atomics, or "true" when unconstrained.
  /// Pre: closed() && feasible().
  std::string ToString() const;

 private:
  void set_bound_node(int p, int q, std::int64_t v) {
    matrix_[static_cast<std::size_t>(p) *
                static_cast<std::size_t>(num_vars_ + 1) +
            static_cast<std::size_t>(q)] = v;
  }
  /// min-assign, invalidates closure.
  void Tighten(int p, int q, std::int64_t v);

  /// Bound matrix in node-major order.  Matrices up to kMaxInlineNodes^2
  /// entries (temporal arity <= 4, the overwhelmingly common case) live
  /// inline in the Dbm object itself, so constructing or copying a small
  /// system never touches the heap; larger systems fall back to one heap
  /// block.
  int num_vars_;
  SmallVec<std::int64_t, kMaxInlineNodes * kMaxInlineNodes> matrix_;
  bool closed_ = false;
  bool feasible_ = true;
};

}  // namespace itdb

#endif  // ITDB_CORE_DBM_H_
