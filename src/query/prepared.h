// A query statement compiled once: the single pipeline from admission to
// evaluation.
//
// Every consumer of a statement -- the session's result-table key,
// evaluation, cache admission, `explain` and `profile` -- reads one
// Prepared instead of re-running its own slice of the front end.  It is
// built in two stages:
//
//   * Stage one (construction / Parse): the parsed tree, whose text keys
//     the statement in the result table, and how the statement is answered
//     (its verb: a relation, or yes/no for `ask`).  A hit or a follower
//     pays exactly this.
//   * Stage two (Analyze, then Compile): Analyze runs the static analyzer
//     once and keeps its AnalysisResult (certified cacheability reads the
//     root certificate from it); Compile applies the analyzer's sound
//     rewrites, optimizes, infers sorts and plans.  With cost_plan the
//     analysis' own abstract interpreter certifies the optimized tree
//     (its memo already holds every subtree the two trees share) and
//     clamps the planner; evaluation ranges data variables over that
//     interpreter's active domain.  Compile reuses the analysis when it has
//     already run, so a miss runs one analysis, one abstract
//     interpretation, one active-domain scan and one optimization.
//
// A yes/no statement (Answer::kYesNo) is a closed formula.  Compile peels
// the quantifier prefix of the rewritten tree (PeelQuantifierPrefix,
// query/ast.h) and plans only the body: `EXISTS x1 ... xk . phi` holds iff
// the relation of phi is nonempty, and `FORALL x1 ... xk . phi` -- that is,
// NOT EXISTS x1 . NOT NOT EXISTS x2 ... NOT phi -- holds iff the relation
// of NOT phi is empty (Theorem 4.1 by Table 2 emptiness tests, with no
// projections).  The peel runs before Optimize, whose miniscoping would
// bury the root quantifiers inside the AND chain.  The body is then split
// into its parts: the maximal groups of its top AND chain's conjuncts
// that share variables.  Parts share no variable, so the body's
// relation is their cross product and is nonempty iff every part is --
// one emptiness test per part, stopping at the first empty one, where the
// whole body would materialize the product (miniscoping kept such
// conjuncts apart as separate projections).  The body is sorted,
// certified and planned part by part with the statement's one analysis,
// interpreter and active domain -- seeded from the whole statement, so its
// data variables range over the same values the projections would have.
//
// Both stages are memoized, and stage two is tied to the Database snapshot
// it first ran against: callers hold the same reader lock from Analyze to
// EvalPrepared (a Prepared is per statement, never cached across versions).
// A statement compiles and evaluates under the one QueryOptions it was
// prepared with.

#ifndef ITDB_QUERY_PREPARED_H_
#define ITDB_QUERY_PREPARED_H_

#include <optional>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "obs/profile.h"
#include "query/ast.h"
#include "query/eval.h"
#include "query/planner.h"
#include "query/sorts.h"
#include "storage/database.h"
#include "util/status.h"

namespace itdb {
namespace query {

/// How a statement is answered, fixed by its verb at stage one.
enum class Answer {
  kRelation,  // The result relation (`query`, `profile`): EvalPrepared.
  kYesNo,     // A closed formula's truth (`ask`): EvalPreparedBoolean.
};

class Prepared {
 public:
  /// Stage one over an already-parsed tree.  Nothing is analyzed or
  /// optimized yet.
  Prepared(QueryPtr query, QueryOptions options,
           Answer answer = Answer::kRelation);

  /// Stage one from text.
  static Result<Prepared> Parse(std::string_view text,
                                const QueryOptions& options,
                                Answer answer = Answer::kRelation);

  /// The parsed tree.
  const QueryPtr& query() const { return query_; }
  /// The options this statement compiles and evaluates under.
  const QueryOptions& options() const { return options_; }
  Answer answer() const { return answer_; }

  /// Stage two, first half: runs the analyzer (with the statistics cache
  /// and tracer wired as evaluation wires them) on the first call; later
  /// calls return the same result.  Runs whether or not
  /// `options().analyze` is set -- certified planning needs it either way.
  const analysis::AnalysisResult& Analyze(const Database& db);
  /// The analysis; only after Analyze.
  const analysis::AnalysisResult& analysis() const { return *analysis_; }

  /// Stage two, second half: a yes/no statement with free variables fails
  /// with kInvalidArgument.  With `options().analyze`, aborts on analysis
  /// errors, stops at a root proven bit-empty, and applies the sound
  /// rewrites; a yes/no statement then has its root quantifier prefix
  /// peeled (above); then optimizes, infers sorts, splits a yes/no body
  /// into its parts and (with cost_plan) plans each, clamped by the
  /// analysis' interpreter (none when the analysis has errors: the plan is
  /// then unclamped).
  /// Memoized, including its failure.
  Status Compile(const Database& db);

  /// After a successful Compile: the analysis proved the root bit-empty,
  /// so there is no plan; a relation is empty and a yes/no answer false.
  bool statically_empty() const { return statically_empty_; }
  /// After a successful Compile of a yes/no statement: the peeled prefix
  /// began with NOT EXISTS (a FORALL prefix peels to the body NOT phi), so
  /// the statement holds iff the body's relation is empty (else: iff it is
  /// nonempty).
  bool holds_when_empty() const { return holds_when_empty_; }
  /// After a successful Compile (and not statically empty): the rewritten,
  /// optimized tree before planning (for a yes/no statement, the peeled
  /// body), the planned trees evaluation runs, their sorts, and the
  /// planner's estimates and certificates (both empty unless cost_plan;
  /// certificates also empty when the analysis has errors).  A relation statement has one plan; a yes/no
  /// statement one per part of its body (above), in chain order.
  const QueryPtr& rewritten() const { return rewritten_; }
  const std::vector<QueryPtr>& plans() const { return plans_; }
  /// The one plan of a relation statement.
  const QueryPtr& plan() const { return plans_.front(); }
  const SortMap& sorts() const { return sorts_; }
  const PlanEstimateMap& estimates() const { return estimates_; }
  const analysis::CertificateMap& certificates() const;

  /// The statement's active domain: the analysis interpreter's when the
  /// analysis ran without errors, else computed here once from the parsed
  /// tree.  Either way it is seeded from the ORIGINAL query, so constants
  /// of an eliminated dead branch still feed it.
  const ActiveDomain& active_domain(const Database& db);

 private:
  Status CompileOnce(const Database& db);

  QueryPtr query_;
  QueryOptions options_;
  Answer answer_;
  std::optional<analysis::AnalysisResult> analysis_;
  std::optional<Status> compiled_;
  bool statically_empty_ = false;
  bool holds_when_empty_ = false;
  QueryPtr rewritten_;
  std::vector<QueryPtr> plans_;
  SortMap sorts_;
  PlanEstimateMap estimates_;
  std::optional<ActiveDomain> adom_;  // Only without an interpreter.
};

/// Compiles a relation statement against `db` if it is not yet, then
/// evaluates its plan under `prepared.options()`.  With `profile`, the
/// plan spans fold into `*profile` (obs/profile.h), recorded in
/// options().algebra.tracer or else a tracer private to the call (never
/// the global one).  A yes/no statement fails with kInvalidArgument.
/// Defined in eval.cc, next to the evaluator.
Result<GeneralizedRelation> EvalPrepared(const Database& db, Prepared& prepared,
                                         obs::Profile* profile = nullptr);

/// Answers a yes/no statement (Theorem 4.1): compiles it (failing with
/// kInvalidArgument when it has free variables), answers false for a root
/// proven bit-empty, else asks of each part of the peeled body, up to the
/// first empty one, whether its relation has a point -- by the pull loop
/// of eval.h, which stops at the first tuple with one.  A relation
/// statement fails with kInvalidArgument.  With `profile`, each part's
/// "pull" span and the spans of the children it materialized fold into
/// `*profile`, as for EvalPrepared.
Result<bool> EvalPreparedBoolean(const Database& db, Prepared& prepared,
                                 obs::Profile* profile = nullptr);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_PREPARED_H_
