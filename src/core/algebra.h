// Relational algebra on generalized relations (Section 3 of the paper).
//
// All operations are closed on generalized relations with restricted
// constraints; the implementations follow the paper's constructions:
//   * union:            tuple-set merge (3.1)
//   * intersection:     pairwise lrp intersection + conjoined constraints (3.2)
//   * subtraction:      t1 - t2 = (t1 - t2*) U (not(t2) ^ t1) (3.3, Fig. 1)
//   * projection:       drop free and pinned columns exactly; then each
//                       constraint-graph part holding a dropped column is
//                       normalized on its own, eliminated in n-space and
//                       rebuilt (3.4, last paragraph)
//   * selection:        constraint insertion (3.5)
//   * cross product:    tuple concatenation (3.6)
//   * join:             intersection on shared attributes (3.7)
//   * complement:       residue-universe enumeration + incremental DNF of
//                       negated constraints with reduction (A.6)
//   * emptiness and     the same exact drops and parts, then each part's
//     witness:          first feasible normal-form piece (Theorem 3.5); the
//                       parts' points side by side lift back through the
//                       drops.

#ifndef ITDB_CORE_ALGEBRA_H_
#define ITDB_CORE_ALGEBRA_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cmp.h"
#include "core/index.h"
#include "core/normalize.h"
#include "core/normalize_cache.h"
#include "core/relation.h"
#include "util/status.h"

namespace itdb {

namespace obs {
class Tracer;  // obs/trace.h
}  // namespace obs

/// Budgets and observers for algebra operations.  Every operation runs on
/// the calling thread.
struct AlgebraOptions {
  /// Cap on the split product of one Theorem 3.2 normalization
  /// (NormalizeOptions::max_split_product).  Complement's k^m residue
  /// universe is the split of the free tuple [0+1n, ...] to period k
  /// (Lemma 3.1), so the same cap bounds it.
  std::int64_t max_split_product = std::int64_t{1} << 20;
  /// Hard cap on the number of tuples any intermediate or final relation may
  /// reach (subtraction chains and complements can explode; see Appendix A).
  std::int64_t max_tuples = std::int64_t{1} << 22;
  /// Optional memo-cache for Theorem 3.2 normalization, shared across the
  /// operations of one query / benchmark run (see normalize_cache.h).
  /// Not owned; null disables memoization.  Cached and uncached results
  /// are byte-identical.
  NormalizeCache* normalize_cache = nullptr;
  /// Optional instrumentation for the indexed kernels (core/index.h: pairs
  /// pruned per prefilter, incremental vs full closures).  Not owned; null
  /// disables counting.
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

/// r1 ^ r2 (Section 3.2.2): pairwise tuple intersections.  Schemas must
/// match.  Over one schema every column is shared, so this is Join(a, b)
/// with columns matched by position: the same pair kernel, the same tuples
/// in the same order, and the same statuses, with budget messages and the
/// trace span named "Intersect".  Budgets charge the candidate pairs left
/// after the data-key partition, not the raw a x b product.
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
/// of their constraint component only (Section 3.4).  A projection that
/// drops no temporal column is a permutation of each tuple: its lrps and
/// matrix entries move to their new columns (Dbm::MapVariables) and
/// nothing is normalized; the query evaluator reorders every chain root
/// this way.  Fails with kInvalidArgument when a temporal attribute is
/// named twice.
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
/// (value equality).  One indexed pair scan (core/index.h): b is
/// partitioned on the shared data columns, residue and hull prefilters
/// reject pairs on the shared temporal columns, and each conjunction closes
/// incrementally.  Budgets charge candidate pairs, as for Intersect.
Result<GeneralizedRelation> Join(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b,
                                 const AlgebraOptions& options = {});

/// The pair kernel of Join and Intersect, with its right side `b` prepared
/// once: the data-key partition of b, the column matching and the output
/// schema, and (as rows are reached) each b row's hull and constraint
/// matrix in the output's columns.  A left tuple is joined by probing:
/// Candidates finds the b rows that agree on the matched data columns,
/// Hoist prepares the rows reached for the first time, and Probe runs the
/// residue and hull prefilters, the CRT intersection of the matched lrps
/// and the incremental closure of the conjunction (core/index.h) on each
/// candidate pair.  Join and Intersect probe every tuple of their left
/// side; the query evaluator's AND chains probe one left tuple at a time,
/// depth-first, one probe per AND, and a yes/no statement stops at its
/// first witness (query/eval.cc).  The probe borrows `b`, which must
/// outlive it.
class JoinProbe {
 public:
  /// Join's matching: b's attributes meet a's of the same name.  Fails with
  /// kInvalidArgument when a shared data attribute has two types.
  static Result<JoinProbe> ForJoin(const Schema& a_schema,
                                   const GeneralizedRelation& b,
                                   const AlgebraOptions& options);

  /// b_temporal_match[j] (b_data_match[j]) is the column of a's schema
  /// that b's temporal (data) column j meets, or -1 when the column is new.
  /// The output holds a's columns, then b's new ones.  `op` names the
  /// operation in budget messages.
  JoinProbe(const Schema& a_schema, const GeneralizedRelation& b,
            std::vector<int> b_temporal_match, std::vector<int> b_data_match,
            const AlgebraOptions& options, const char* op);

  /// The schema of every joined tuple.
  const Schema& schema() const { return schema_; }

  /// The b rows (ascending) that agree with `ta` on the matched data
  /// columns.  Counts them, over every call, against options.max_tuples:
  /// fails with kResourceExhausted once the running count exceeds it.
  Result<std::span<const std::size_t>> Candidates(const GeneralizedTuple& ta);

  /// Prepares, in first-touch order, the rows of `buckets` (spans that
  /// Candidates returned) not prepared yet.
  void Hoist(std::span<const std::span<const std::size_t>> buckets);

  /// Appends `ta` joined with each row of `bucket` (a span Candidates
  /// returned, hoisted) to `out`, in bucket order; a pair with disjoint
  /// lrps or an infeasible conjunction contributes nothing.
  Status Probe(const GeneralizedTuple& ta, std::span<const std::size_t> bucket,
               std::vector<GeneralizedTuple>& out) const;

 private:
  const GeneralizedRelation* b_;
  AlgebraOptions options_;
  const char* op_;
  std::vector<int> b_temporal_match_;
  Schema schema_;
  int ma_ = 0;
  int m_out_ = 0;
  /// Where b's temporal column j lands in the output.
  std::vector<int> b_temporal_target_;
  /// b's data columns appended to the output.
  std::vector<int> b_new_data_;
  /// a's data columns that the partition of b is keyed on, in key order.
  std::vector<int> a_key_cols_;
  /// (a column, b column) of every shared temporal column.
  std::vector<std::pair<int, int>> shared_temporal_;
  std::optional<DataKeyIndex> index_;
  std::int64_t candidates_ = 0;
  /// slot_[j]: b row j's entry in hull_b_ / cb_mapped_, -1 before Hoist.
  std::vector<std::int64_t> slot_;
  std::vector<TemporalHull> hull_b_;
  std::vector<Dbm> cb_mapped_;
};

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
/// normalizes each connected part of the rest's constraint graph on its own
/// period; empty iff some part has no feasible piece.  Computes no point.
Result<bool> TupleIsEmpty(const GeneralizedTuple& t,
                          const AlgebraOptions& options = {});

/// Theorem 3.5: whether the relation represents no concrete row at all.
Result<bool> IsEmpty(const GeneralizedRelation& r,
                     const AlgebraOptions& options = {});

/// A concrete temporal point of the tuple, nullopt iff TupleIsEmpty(t): the
/// same reduction, then NSpaceTuple::FirstPoint on each part's piece, the
/// parts' points side by side lifted back through the dropped columns on
/// the re-closed DBM (Theorem 3.5).  Fails with kOverflow when a value
/// leaves the int64 range.
Result<std::optional<std::vector<std::int64_t>>> FirstPoint(
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
