#include "query/prepared.h"

#include <utility>

#include "obs/metrics.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "util/diagnostic.h"

namespace itdb {
namespace query {

namespace {

/// The Status an error-severity analysis turns into: the legacy code for
/// the FIRST error (NotFound for unknown relations, InvalidArgument
/// otherwise), with the whole diagnostic list in the message.
Status AnalysisFailure(const analysis::AnalysisResult& analysis) {
  std::string message =
      "static analysis failed:\n" + FormatDiagnosticList(analysis.diagnostics);
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (d.code == diag::kUnknownRelation) return Status::NotFound(message);
    break;
  }
  return Status::InvalidArgument(message);
}

}  // namespace

Prepared::Prepared(QueryPtr query, QueryOptions options)
    : query_(std::move(query)), options_(std::move(options)) {}

Result<Prepared> Prepared::Parse(std::string_view text,
                                 const QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  return Prepared(std::move(q), options);
}

const QueryPtr& Prepared::optimized() {
  if (optimized_ == nullptr) {
    optimized_ = options_.optimize ? Optimize(query_) : query_;
  }
  return optimized_;
}

const analysis::AnalysisResult& Prepared::Analyze(const Database& db) {
  if (!analysis_.has_value()) {
    analysis::AnalyzeOptions aopts = options_.analysis;
    // Analysis spans follow the same opt-in as evaluation spans: only a
    // traced run forwards the tracer (an untraced eval opens no spans).
    if (aopts.tracer == nullptr && options_.trace) {
      aopts.tracer = options_.tracer != nullptr ? options_.tracer
                                                : options_.algebra.tracer;
    }
    // The certificate pass reads the same per-relation statistics the
    // planner does; share its memo.
    if (aopts.stats_cache == nullptr) aopts.stats_cache = options_.stats_cache;
    analysis_ = analysis::Analyze(db, query_, aopts);
  }
  return *analysis_;
}

Status Prepared::Compile(const Database& db) {
  if (!compiled_.has_value()) compiled_ = CompileOnce(db);
  return *compiled_;
}

Status Prepared::CompileOnce(const Database& db) {
  // Static analysis front end: abort on error-severity findings, serve a
  // proven-empty root without evaluating, drop provably dead OR branches.
  QueryPtr base = query_;
  if (options_.analyze) {
    const analysis::AnalysisResult& ar = Analyze(db);
    if (ar.HasErrors()) {
      obs::AddGlobalCounter("analysis.aborts", 1);
      return AnalysisFailure(ar);
    }
    // Short-circuit only on a bit-level proof: the plain evaluation of a
    // merely set-empty root can return infeasible tuples, and analysis
    // must be representation-invisible.
    if (ar.root_proven_bit_empty) {
      statically_empty_ = true;
      return Status::Ok();
    }
    base = analysis::ApplySoundRewrites(query_, ar);
  }
  // ApplySoundRewrites returns its input when nothing applies: then the
  // plan shape's Optimize is the one evaluation needs.
  if (base == query_) {
    rewritten_ = optimized();
  } else {
    rewritten_ = options_.optimize ? Optimize(base) : base;
  }
  ITDB_ASSIGN_OR_RETURN(sorts_, InferSorts(db, rewritten_));
  plan_ = rewritten_;
  if (!options_.cost_plan) return Status::Ok();
  // Cost-based physical planning: reorder AND-chains on the statistics.
  // Planning preserves variable sets, so the sorts above stay valid for the
  // planned tree.  Certified bounds: interpret the tree being planned so
  // the planner can clamp its heuristics (planner.h).  The active domain is
  // seeded from the ORIGINAL query for the same reason evaluation sizes its
  // data universes from it: rewrites may drop constants.
  std::optional<analysis::AbstractInterpreter> interp;
  if (options_.certified_bounds) {
    interp.emplace(db, sorts_, options_.stats_cache, options_.analysis.budget);
    interp->SeedActiveDomain(*query_);
    interp->Interpret(rewritten_);
  }
  PlannedQuery planned =
      PlanQuery(db, rewritten_, sorts_, options_.stats_cache,
                interp.has_value() ? &*interp : nullptr);
  plan_ = std::move(planned.query);
  estimates_ = std::move(planned.estimates);
  // Copy AFTER planning: the planner registers certificates for the AND
  // nodes it rebuilds, so the planned tree is fully annotated.  (The keys
  // of `rewritten_`'s nodes stay valid: this object keeps that tree alive.)
  if (interp.has_value()) certificates_ = interp->certificates();
  obs::AddGlobalCounter("query.cost_plans", 1);
  return Status::Ok();
}

}  // namespace query
}  // namespace itdb
