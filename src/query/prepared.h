// A query statement compiled once: the single pipeline from admission to
// evaluation.
//
// Every consumer of a statement -- the session's result-cache lookup,
// admission grading, the plan batcher, evaluation, cache admission,
// `explain` and `profile` -- reads one Prepared instead of re-running its
// own slice of the front end.  It is built in two stages:
//
//   * Stage one (construction / Parse): the parsed tree plus its plan shape,
//     the text of the optimized tree that fingerprints the statement for
//     the batcher and the result cache.  A cache hit pays exactly this.
//   * Stage two (Analyze, then Compile): Analyze runs the static analyzer
//     once and keeps its AnalysisResult (grading reads the root certificate
//     and diagnostics from it); Compile applies the analyzer's sound
//     rewrites, optimizes, infers sorts and plans.  With certified planning
//     the analysis' own abstract interpreter certifies the optimized tree
//     (its memo already holds every subtree the two trees share) and
//     clamps the planner; evaluation ranges data variables over that
//     interpreter's active domain.  Compile reuses the analysis when it has
//     already run and reuses stage one's optimized tree when no rewrite
//     applied, so a miss runs one analysis, one abstract interpretation,
//     one active-domain scan and one optimization.
//
// Both stages are memoized, and stage two is tied to the Database snapshot
// it first ran against: callers hold the same reader lock from Analyze to
// EvalPrepared (a Prepared is per statement, never cached across versions).
//
// Options split in two.  The compile-time knobs (analyze, optimize,
// cost_plan, certified_bounds, stats_cache, and trace/tracer for analysis
// spans) are fixed at construction.  EvalPrepared reads only the
// evaluation-time knobs of the options it is given (algebra budgets and
// caches, trace, tracer), which is how a session divides a heavy
// statement's budgets after grading it from the analysis.

#ifndef ITDB_QUERY_PREPARED_H_
#define ITDB_QUERY_PREPARED_H_

#include <optional>
#include <string_view>

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

class Prepared {
 public:
  /// Stage one over an already-parsed tree.  Nothing is analyzed or
  /// optimized yet.
  Prepared(QueryPtr query, QueryOptions options);

  /// Stage one from text.
  static Result<Prepared> Parse(std::string_view text,
                                const QueryOptions& options);

  /// The parsed tree.
  const QueryPtr& query() const { return query_; }
  /// The compile-time options this statement was prepared with.
  const QueryOptions& options() const { return options_; }

  /// The plan shape: the optimized tree (the parsed one with optimize
  /// off).  Its text is the plan part of a batcher / result-cache key.
  const QueryPtr& optimized();

  /// Stage two, first half: runs the analyzer (with the statistics cache
  /// and tracer wired as evaluation wires them) on the first call; later
  /// calls return the same result.  Runs whether or not
  /// `options().analyze` is set -- grading and certified planning need it
  /// either way.
  const analysis::AnalysisResult& Analyze(const Database& db);
  /// The analysis; only after Analyze.
  const analysis::AnalysisResult& analysis() const { return *analysis_; }

  /// Stage two, second half: with `options().analyze`, aborts on analysis
  /// errors, stops at a root proven bit-empty, and applies the sound
  /// rewrites; then optimizes, infers sorts and (with cost_plan) plans --
  /// with certified_bounds, clamped by the analysis' interpreter (none when
  /// the analysis has errors: the plan is then unclamped).  Memoized,
  /// including its failure.
  Status Compile(const Database& db);

  /// After a successful Compile: the analysis proved the root bit-empty,
  /// so there is no plan and evaluation returns the empty relation.
  bool statically_empty() const { return statically_empty_; }
  /// After a successful Compile (and not statically empty): the rewritten,
  /// optimized tree before planning, the planned tree evaluation runs, its
  /// sorts, and the planner's estimates and certificates (both empty
  /// unless cost_plan / certified_bounds).
  const QueryPtr& rewritten() const { return rewritten_; }
  const QueryPtr& plan() const { return plan_; }
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
  QueryPtr optimized_;  // Stage one's Optimize(query_), computed lazily.
  std::optional<analysis::AnalysisResult> analysis_;
  std::optional<Status> compiled_;
  bool statically_empty_ = false;
  QueryPtr rewritten_;
  QueryPtr plan_;
  SortMap sorts_;
  PlanEstimateMap estimates_;
  // The analysis' interpreter clamped the plan (certificates() is its map).
  bool certified_ = false;
  std::optional<ActiveDomain> adom_;  // Only without an interpreter.
};

/// Compiles `prepared` against `db` if it is not yet, then evaluates its
/// plan (see the option split above).  With `profile`, evaluation is traced
/// per plan node exactly as EvalQueryProfiled documents.  Defined in
/// eval.cc, next to the evaluator.
Result<GeneralizedRelation> EvalPrepared(const Database& db, Prepared& prepared,
                                         const QueryOptions& options,
                                         obs::Profile* profile = nullptr);

/// EvalPrepared for a yes/no query: fails with kInvalidArgument when the
/// statement has free variables, else reports whether the result is
/// nonempty (Theorem 4.1).
Result<bool> EvalPreparedBoolean(const Database& db, Prepared& prepared,
                                 const QueryOptions& options);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_PREPARED_H_
