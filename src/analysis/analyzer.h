// Static query analysis (the front end of EvalQuery).
//
// Analyze runs a fixed sequence of passes over a parsed query AST, before
// any algebra executes, and reports findings as coded Diagnostics
// (util/diagnostic.h):
//
//   1. sort/type checking of the two-sorted language (query/sorts.h,
//      collecting form) plus structural checks: mixed-constant
//      comparisons (A004), data self-comparison (A007), vacuous
//      quantifiers (A013);
//   2. safety / range restriction: a data variable not bound by a positive
//      atom (or a positive equality with a constant) ranges over the whole
//      active domain (A008);
//   3. satisfiability prechecks (emptiness.h): constant temporal
//      constraints of each conjunction are closed with
//      Dbm::TightenAndClose; an infeasible conjunction, an empty relation,
//      or a ground-false comparison proves a subplan empty, and emptiness
//      propagates up the plan (A-and-empty = empty, or of empties = empty,
//      exists of empty = empty, ...) -- reported as A009 on maximal empty
//      nodes;
//   4. complexity / cost estimates (cost.h): complements over wide
//      operands (NP-complete regime, Theorem 3.5; A010), conjunctions with
//      no shared attributes (cross products; A011), and period-blowup
//      estimates from the lcm of operand periods (A012);
//   5. certified bounds (absint.h): the certified counterparts of the
//      cost heuristics (A014/A015), hull refutations (A016) and
//      uncertifiable queries (A017).  The pass-5 interpreter is kept in
//      the result, so the planner and evaluation reuse its certificates
//      and its active domain instead of computing their own.
//
// Passes 2-5 only run when pass 1 found no errors (their inputs -- the
// SortMap -- would be meaningless otherwise).  No pass can be switched
// off, and the thresholds are the constants of cost.h.
//
// Soundness contract (pinned by the fuzz oracle, fuzz/query_oracle.h):
// every node in `proven_empty` denotes the empty relation, and
// ApplySoundRewrites never changes the evaluation result -- bit-identical
// output at any thread count, analysis on or off.  Only the
// `proven_bit_empty` subset (evaluation provably yields ZERO tuples, not
// just the empty set -- see emptiness.h) may drive rewrites or
// short-circuits; DBM-refuted subplans stay diagnostics-only because the
// evaluator may represent them with infeasible tuples.

#ifndef ITDB_ANALYSIS_ANALYZER_H_
#define ITDB_ANALYSIS_ANALYZER_H_

#include <memory>
#include <set>
#include <vector>

#include "analysis/absint.h"
#include "analysis/cost.h"
#include "obs/trace.h"
#include "query/ast.h"
#include "query/sorts.h"
#include "storage/database.h"
#include "util/diagnostic.h"

namespace itdb {
namespace analysis {

/// Wiring only: which caches and tracer the passes use.  The passes
/// themselves always run, against the thresholds in cost.h.
struct AnalyzeOptions {
  /// Statistics cache for the certificate pass; null computes stats per
  /// relation on the fly.  Not owned.
  StatsCache* stats_cache = nullptr;
  /// Span destination for the "analysis" category; null falls back to the
  /// process-global tracer.  Not owned.
  obs::Tracer* tracer = nullptr;
  /// The statement is a closed yes/no formula (`ask`).  Its top AND chain
  /// under a root EXISTS prefix is answered one variable-disjoint part at
  /// a time (query/prepared.h), so that chain gets no A011.
  bool yes_no = false;
};

struct AnalysisResult {
  /// Keeps the analyzed tree alive: `proven_empty` points into it.
  query::QueryPtr root;
  /// All findings, in pass order (source order within a pass).
  std::vector<Diagnostic> diagnostics;
  /// Valid when HasErrors() is false.
  query::SortMap sorts;
  /// Every node of `root`'s tree whose denotation is provably empty.
  std::set<const query::Query*> proven_empty;
  /// The subset whose evaluation provably yields zero tuples; the only
  /// proofs strong enough to rewrite or short-circuit on.
  std::set<const query::Query*> proven_bit_empty;
  bool root_proven_empty = false;
  bool root_proven_bit_empty = false;
  /// The pass-5 interpreter, holding a certificate for every node of
  /// `root`'s tree and the statement's active domain (seeded from `root`).
  /// Null when pass 1 found errors.  Tied to the analyzed Database: the
  /// planner interprets the optimized tree on the same instance
  /// (query/prepared.h).
  std::shared_ptr<AbstractInterpreter> interpreter;
  /// The root node's certificate (top when the pass did not run).
  Certificate root_certificate;

  bool HasErrors() const { return itdb::HasErrors(diagnostics); }
  int errors() const { return CountSeverity(diagnostics, Severity::kError); }
  int warnings() const {
    return CountSeverity(diagnostics, Severity::kWarning);
  }
};

/// Runs all passes.  Never fails: problems are diagnostics, not Statuses.
AnalysisResult Analyze(const Database& db, const query::QueryPtr& q,
                       const AnalyzeOptions& options = {});

/// Applies the provably sound subset of the analysis as a rewrite: an OR
/// branch proven empty whose free variables are a subset of the surviving
/// branch's is dropped (union with zero tuples is the identity on the
/// representation, so the result is bit-identical).  Returns `q` itself
/// when nothing applies; `removed`, if non-null, receives the number of
/// branches dropped.  Feed the result to query::Optimize, exactly where
/// the optimizer pipeline would otherwise start.
query::QueryPtr ApplySoundRewrites(const query::QueryPtr& q,
                                   const AnalysisResult& analysis,
                                   int* removed = nullptr);

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_ANALYZER_H_
