// Query evaluation (Section 4): compiles two-sorted first-order queries to
// the closed relational algebra of Section 3 and evaluates them against a
// Database.
//
// Semantics:
//   * Temporal variables and quantifiers range over all of Z -- the whole
//     point of the paper's representation.  Negation over the temporal sort
//     uses the Appendix A.6 complement.  Universal quantification is
//     NOT EXISTS NOT: the parser and Query::Forall build exactly that tree
//     (query/ast.h), so the evaluator has no universal node.
//   * Data variables and quantifiers range over the ACTIVE DOMAIN: the data
//     values appearing in the database plus the constants of the query,
//     split by type (query::ComputeActiveDomain, sorts.h).  This is the standard safe interpretation of the
//     generic sort.
//   * The result of an open query is a generalized relation with one
//     temporal column per free temporal variable and one data column per
//     free data variable, each named after its variable, in sorted name
//     order per kind.
//   * Every left-deep AND chain runs through one chain evaluator, a
//     depth-first pull.  The leftmost leaf and the right child of every AND
//     are materialized; each AND joins the tuples it is fed with its right
//     child through one JoinProbe (core/algebra.h), on one thread.  Each
//     AND charges its candidate pairs, over every tuple it is fed, against
//     max_tuples.  A relation collects the tuples past the root, reorders
//     their columns canonically and sorts them, once.
//   * A sentence (no free variables) evaluates to a zero-arity relation,
//     and is true iff that relation is nonempty (Theorem 4.1).
//     EvalBooleanQuery decides this without the root quantifiers' work:
//     emptiness tests on the body under them (query/prepared.h).  The body
//     is not built either.  Each part runs the chain pull over its plan,
//     tests each tuple past the root with TupleIsEmpty and stops at the
//     first nonempty one.  A false answer probes every pair the relation
//     would join, so it fails whenever one of the relation's ANDs exceeds
//     the budget.

#ifndef ITDB_QUERY_EVAL_H_
#define ITDB_QUERY_EVAL_H_

#include <string>
#include <string_view>

#include "core/algebra.h"
#include "query/ast.h"
#include "query/sorts.h"
#include "storage/database.h"
#include "util/status.h"

namespace itdb {

class StatsCache;  // core/stats.h

namespace query {

struct QueryOptions {
  /// The options every algebra call of the statement runs under.  When
  /// algebra.tracer is set, the statement also opens its analysis spans
  /// (category "analysis") and one span per query-plan node (category
  /// "plan", labeled AND / OR / ATOM ... / EXISTS v) there, recording
  /// wall/CPU time, tuples_out, and the deltas of the kernel counters and
  /// normalize-cache stats attributable to the node's subtree.  With no
  /// algebra.tracer, only the algebra spans go to the process-global
  /// tracer (obs::InstallGlobalTracer) when one is installed.  Tracing is
  /// an observer only: results are bit-identical with it on or off.
  AlgebraOptions algebra;
  /// Run the static analyzer (analysis/analyzer.h) before evaluation.
  /// Error-severity diagnostics abort with a Status listing them; otherwise
  /// the analyzer's sound rewrites (dead OR-branch elimination) are applied
  /// and a root proven empty short-circuits evaluation.  Both are
  /// bit-identical to evaluating without analysis -- same representation
  /// (the fuzz oracle pins this).  Disable to
  /// evaluate exactly the tree you built, diagnostics be damned.  The
  /// analyzer has no knobs of its own: its thresholds are the constants of
  /// analysis/cost.h.
  bool analyze = true;
  /// Run the logical optimizer (query/optimize.h) before evaluation.
  /// Semantics-preserving; dramatically cheaper complements on deeply
  /// quantified queries.  Disable to benchmark the naive pipeline.
  bool optimize = true;
  /// Cost-based physical planning (query/planner.h): reorder AND-chains
  /// greedy left-deep on per-relation statistics before evaluation.
  /// Bit-identical to the written order (the tuples past each chain root
  /// are sorted canonically either way; the fuzz matrix pins it), except
  /// that planned and written orders can exhaust resource budgets
  /// differently.
  bool cost_plan = true;
  /// Memo for the per-relation statistics the planner reads, keyed on the
  /// database's catalog version (core/stats.h).  Not owned; null recomputes
  /// statistics on every planned query.
  StatsCache* stats_cache = nullptr;
};

/// Evaluates an open query; see the semantics above.  This and the
/// variants below compile one query::Prepared (prepared.h) and evaluate it;
/// callers that need the analysis, the plan or a profile too use Prepared
/// directly (Prepared::Analyze, Prepared::Compile, and EvalPrepared with a
/// profile).
Result<GeneralizedRelation> EvalQuery(const Database& db, const QueryPtr& q,
                                      const QueryOptions& options = {});

/// Evaluates a yes/no query as a query::Answer::kYesNo statement
/// (prepared.h).  Fails with kInvalidArgument when `q` has free variables.
Result<bool> EvalBooleanQuery(const Database& db, const QueryPtr& q,
                              const QueryOptions& options = {});

/// Parse + evaluate conveniences.
Result<GeneralizedRelation> EvalQueryString(const Database& db,
                                            std::string_view text,
                                            const QueryOptions& options = {});
Result<bool> EvalBooleanQueryString(const Database& db, std::string_view text,
                                    const QueryOptions& options = {});

/// The label of one plan node: what EXPLAIN prints, what its trace span is
/// named, and what the planner's estimated-plan rendering
/// (FormatQueryPlanWithEstimates, planner.h) prefixes (AND / OR / NOT /
/// EXISTS v / ATOM P(x, y) / CMP x < y).
std::string PlanNodeLabel(const Query& q);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_EVAL_H_
