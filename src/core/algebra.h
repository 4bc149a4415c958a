// Relational algebra on generalized relations (Section 3 of the paper).
//
// All operations are closed on generalized relations with restricted
// constraints; the implementations follow the paper's constructions:
//   * union:            tuple-set merge (3.1)
//   * intersection:     pairwise lrp intersection + conjoined constraints (3.2)
//   * subtraction:      t1 - t2 = (t1 - t2*) U (not(t2) ^ t1) (3.3, Fig. 1)
//   * projection:       drop free and pinned columns exactly, then
//                       normalize, eliminate in n-space, rebuild (3.4)
//   * selection:        constraint insertion (3.5)
//   * cross product:    tuple concatenation (3.6)
//   * join:             intersection on shared attributes (3.7)
//   * complement:       residue-universe enumeration + incremental DNF of
//                       negated constraints with reduction (A.6)
//   * emptiness:        the same exact drops, then normal-form feasibility
//                       (Theorem 3.5).

#ifndef ITDB_CORE_ALGEBRA_H_
#define ITDB_CORE_ALGEBRA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/normalize.h"
#include "core/normalize_cache.h"
#include "core/relation.h"
#include "util/status.h"

namespace itdb {

struct KernelCounters;  // core/index.h

namespace obs {
class Tracer;  // obs/trace.h
}  // namespace obs

/// Comparison operators for selection conditions.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// A selection condition on temporal attributes:
///   X(lhs) op X(rhs) + c        (rhs >= 0)
///   X(lhs) op c                 (rhs == kZeroVar).
/// kNe splits tuples in two (the paper's disjunction-splitting rule).
struct TemporalCondition {
  int lhs = 0;
  int rhs = kZeroVar;
  CmpOp op = CmpOp::kEq;
  std::int64_t c = 0;
};

/// Budgets and switches for algebra operations.
struct AlgebraOptions {
  NormalizeOptions normalize;
  /// Hard cap on the number of tuples any intermediate or final relation may
  /// reach (subtraction chains and complements can explode; see Appendix A).
  std::int64_t max_tuples = std::int64_t{1} << 22;
  /// Cap on the k^m residue universe enumerated by Complement.
  std::int64_t max_complement_universe = std::int64_t{1} << 20;
  /// Partial normalization for projection (the optimization suggested at
  /// the end of Section 3.4): dropped columns that are free (period 1) or
  /// pinned by an equality are eliminated exactly without normalizing
  /// (EliminateFreeAndPinnedColumns, normalize.h), and of the rest only the
  /// columns constraint-connected to the eliminated ones are normalized;
  /// unrelated columns pass through untouched, avoiding their share of the
  /// k^m split.  False runs the verbatim Section 3.4 construction (normalize
  /// every column), the reference the tests compare against.
  bool partial_normalization = true;
  /// Worker threads for the per-tuple / per-tuple-pair kernels of
  /// Intersect, Join, Subtract and Complement (0 = the ITDB_THREADS /
  /// hardware default, 1 = sequential).  Results are
  /// bit-identical at every thread count: work is partitioned by input
  /// index and merged in input order.  Independent of normalize.threads,
  /// which governs the in-tuple split sweep.
  int threads = 0;
  /// Optional memo-cache for Theorem 3.2 normalization, shared across the
  /// operations of one query / benchmark run (see normalize_cache.h).
  /// Not owned; null disables memoization.  Cached and uncached results
  /// are byte-identical.
  NormalizeCache* normalize_cache = nullptr;
  /// Indexed kernels and DBM fast paths (core/index.h): hash-partition the
  /// inner relation of Join / Intersect / Subtract on shared data-attribute
  /// values, reject candidate pairs with O(1) residue-class and bounding-
  /// interval prefilters, and close conjunctions incrementally in O(n^2) per
  /// atomic instead of the full O(n^3) Floyd-Warshall.  Bit-identical to the
  /// naive paths (the fuzz determinism matrix pins indexed == naive); also
  /// switches CheckBudget in Join / Intersect to charge candidate pairs
  /// rather than the raw a x b product.
  bool use_index = true;
  /// Optional instrumentation for the indexed kernels (pairs pruned per
  /// prefilter, incremental vs full closures).  Not owned; null disables
  /// counting.
  KernelCounters* counters = nullptr;
  /// Optional span tracer (obs/trace.h): every algebra operation opens one
  /// span recording wall/CPU time and input sizes.  Not owned; null falls
  /// back to the process-global tracer (obs::InstallGlobalTracer), and when
  /// that is also unset tracing is disabled at the cost of one null check.
  /// Tracing is an observer only: results are bit-identical with it on or
  /// off (pinned by the query-layer determinism test).
  obs::Tracer* tracer = nullptr;
};

/// r1 U r2.  Schemas must match.
Result<GeneralizedRelation> Union(const GeneralizedRelation& a,
                                  const GeneralizedRelation& b,
                                  const AlgebraOptions& options = {});

/// r1 ^ r2 (Section 3.2.2): pairwise tuple intersections.
Result<GeneralizedRelation> Intersect(const GeneralizedRelation& a,
                                      const GeneralizedRelation& b,
                                      const AlgebraOptions& options = {});

/// r1 - r2 (Section 3.3).
Result<GeneralizedRelation> Subtract(const GeneralizedRelation& a,
                                     const GeneralizedRelation& b,
                                     const AlgebraOptions& options = {});

/// Complement of a purely temporal relation with respect to Z^m
/// (Appendix A.6).  Fails with kInvalidArgument when r has data attributes
/// (see ComplementWithDataDomains).
Result<GeneralizedRelation> Complement(const GeneralizedRelation& r,
                                       const AlgebraOptions& options = {});

/// Complement of a relation with data attributes, relative to the universe
/// Z^m x (domains[0] x ... x domains[l-1]).  `domains` supplies the finite
/// active domain of every data column.
Result<GeneralizedRelation> ComplementWithDataDomains(
    const GeneralizedRelation& r, const std::vector<std::vector<Value>>& domains,
    const AlgebraOptions& options = {});

/// Projection onto the named attributes, in the given order (temporal
/// attributes first in the output schema, per convention).  Dropped temporal
/// columns are eliminated exactly: free (period-1) and pinned ones on the
/// closed DBM, where no lattice gap can open, the others via normalization
/// (Section 3.4).  A projection that drops no temporal column only reorders
/// and normalizes nothing.
Result<GeneralizedRelation> Project(const GeneralizedRelation& r,
                                    const std::vector<std::string>& attrs,
                                    const AlgebraOptions& options = {});

/// Selection on temporal attributes (Section 3.5): adds the constraint to
/// every tuple, splitting on kNe; prunes (real-relaxation) infeasible tuples.
Result<GeneralizedRelation> SelectTemporal(const GeneralizedRelation& r,
                                           const TemporalCondition& cond,
                                           const AlgebraOptions& options = {});

/// Selection on a data attribute compared with a constant.
Result<GeneralizedRelation> SelectData(const GeneralizedRelation& r,
                                       int data_col, CmpOp op,
                                       const Value& value);

/// Selection on equality of two data attributes.
Result<GeneralizedRelation> SelectDataEqColumns(const GeneralizedRelation& r,
                                                int left_col, int right_col);

/// r1 x r2 (Section 3.6).  Attribute names must be disjoint.
Result<GeneralizedRelation> CrossProduct(const GeneralizedRelation& a,
                                         const GeneralizedRelation& b,
                                         const AlgebraOptions& options = {});

/// Natural join (Section 3.7): matches temporal attributes by name
/// (lrp intersection + merged constraints) and data attributes by name
/// (value equality).
Result<GeneralizedRelation> Join(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b,
                                 const AlgebraOptions& options = {});

/// Replaces temporal column `col` by its image under x -> x + delta (the
/// iterated successor function of the query language, Section 4).  Lrps
/// shift their offsets and constraints shift their bounds accordingly.
Result<GeneralizedRelation> ShiftTemporalColumn(const GeneralizedRelation& r,
                                                int col, std::int64_t delta);

/// Renames attributes.  `renames` maps old attribute names (temporal or
/// data) to new ones; resulting names must stay unique per kind.
Result<GeneralizedRelation> Rename(
    const GeneralizedRelation& r,
    const std::vector<std::pair<std::string, std::string>>& renames);

/// Whether the tuple's extension is empty.  Exact over the lattice: drops
/// every free and pinned column without normalizing (normalize.h), then
/// normalizes the rest and checks n-space feasibility.
Result<bool> TupleIsEmpty(const GeneralizedTuple& t,
                          const AlgebraOptions& options = {});

/// Theorem 3.5: whether the relation represents no concrete row at all.
Result<bool> IsEmpty(const GeneralizedRelation& r,
                     const AlgebraOptions& options = {});

/// A concrete temporal point of the tuple's extension, if any.  Computed by
/// normalizing and then fixing the n-space variables one at a time inside
/// their (closed) DBM bounds -- the constructive content of Theorem 3.5.
Result<std::optional<std::vector<std::int64_t>>> FindTemporalWitness(
    const GeneralizedTuple& t, const AlgebraOptions& options = {});

/// A concrete row of the relation, if any.
Result<std::optional<ConcreteRow>> FindWitness(
    const GeneralizedRelation& r, const AlgebraOptions& options = {});

/// Whether every concrete row of `a` is a row of `b` (decided symbolically:
/// a - b empty, Theorem 3.5 on the Section 3.3 difference).
Result<bool> Subset(const GeneralizedRelation& a, const GeneralizedRelation& b,
                    const AlgebraOptions& options = {});

/// Whether `a` and `b` represent exactly the same set of concrete rows.
/// Different generalized representations of one set compare equal.
Result<bool> Equivalent(const GeneralizedRelation& a,
                        const GeneralizedRelation& b,
                        const AlgebraOptions& options = {});

}  // namespace itdb

#endif  // ITDB_CORE_ALGEBRA_H_
