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
    analysis::AnalyzeOptions aopts;
    // Analysis spans follow the same opt-in as evaluation spans: only a
    // traced run forwards the tracer (an untraced eval opens no spans).
    if (options_.trace) {
      aopts.tracer = options_.tracer != nullptr ? options_.tracer
                                                : options_.algebra.tracer;
    }
    // The certificate pass reads the same per-relation statistics the
    // planner does; share its memo.
    aopts.stats_cache = options_.stats_cache;
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
  // planned tree.  Certified bounds: the analysis' interpreter certifies
  // the tree being planned so the planner can clamp its heuristics
  // (planner.h).  Its memo already holds the subtrees the optimized tree
  // shares with the parsed one, and its active domain was seeded from the
  // ORIGINAL query, as evaluation's is: rewrites may drop constants.
  analysis::AbstractInterpreter* interp = nullptr;
  if (options_.certified_bounds) {
    interp = Analyze(db).interpreter.get();
    if (interp != nullptr) interp->Interpret(rewritten_);
  }
  PlannedQuery planned =
      PlanQuery(db, rewritten_, sorts_, options_.stats_cache, interp);
  plan_ = std::move(planned.query);
  estimates_ = std::move(planned.estimates);
  // The planner registered certificates for the AND nodes it rebuilt, so
  // the planned tree is fully annotated.
  certified_ = interp != nullptr;
  obs::AddGlobalCounter("query.cost_plans", 1);
  return Status::Ok();
}

const analysis::CertificateMap& Prepared::certificates() const {
  static const analysis::CertificateMap kNone;
  return certified_ ? analysis_->interpreter->certificates() : kNone;
}

const ActiveDomain& Prepared::active_domain(const Database& db) {
  if (analysis_.has_value() && analysis_->interpreter != nullptr) {
    return analysis_->interpreter->active_domain();
  }
  if (!adom_.has_value()) adom_ = ComputeActiveDomain(db, *query_);
  return *adom_;
}

}  // namespace query
}  // namespace itdb
