#include "query/prepared.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/planner.h"
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

/// The parts of a peeled body: the maximal groups of its top AND chain's
/// conjuncts connected by shared free variables, each rebuilt as a
/// left-deep AND in chain order, ordered by first conjunct.  A body of one
/// part is returned as is.
std::vector<QueryPtr> SplitIntoParts(const QueryPtr& body) {
  std::vector<QueryPtr> conjuncts;
  FlattenConjuncts(body, &conjuncts);
  const std::vector<std::size_t> part = GroupConjuncts(conjuncts);
  std::vector<QueryPtr> parts;
  std::map<std::size_t, std::size_t> slot;  // Group -> index in parts.
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    auto [it, fresh] = slot.emplace(part[i], parts.size());
    if (fresh) {
      parts.push_back(conjuncts[i]);
    } else {
      parts[it->second] = Query::And(parts[it->second], conjuncts[i]);
    }
  }
  if (parts.size() == 1) parts.front() = body;
  return parts;
}

}  // namespace

Prepared::Prepared(QueryPtr query, QueryOptions options, Answer answer)
    : query_(std::move(query)), options_(std::move(options)), answer_(answer) {}

Result<Prepared> Prepared::Parse(std::string_view text,
                                 const QueryOptions& options, Answer answer) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  return Prepared(std::move(q), options, answer);
}

const analysis::AnalysisResult& Prepared::Analyze(const Database& db) {
  if (!analysis_.has_value()) {
    analysis::AnalyzeOptions aopts;
    // Analysis spans go where plan spans go (see QueryOptions::algebra).
    aopts.tracer = options_.algebra.tracer;
    // The certificate pass reads the same per-relation statistics the
    // planner does; share its memo.
    aopts.stats_cache = options_.stats_cache;
    aopts.yes_no = answer_ == Answer::kYesNo;
    analysis_ = analysis::Analyze(db, query_, aopts);
  }
  return *analysis_;
}

Status Prepared::Compile(const Database& db) {
  if (!compiled_.has_value()) compiled_ = CompileOnce(db);
  return *compiled_;
}

Status Prepared::CompileOnce(const Database& db) {
  if (answer_ == Answer::kYesNo) {
    const std::vector<std::string> free = query_->FreeVariables();
    if (!free.empty()) {
      std::string vars;
      for (const std::string& v : free) vars += " " + v;
      return Status::InvalidArgument("yes/no query has free variables:" +
                                     vars);
    }
  }
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
  // A yes/no statement plans only its peeled body, peeled before Optimize
  // miniscopes the root quantifiers into the AND chain.
  if (answer_ == Answer::kYesNo) {
    PeeledBody peeled = PeelQuantifierPrefix(std::move(base));
    base = std::move(peeled.body);
    holds_when_empty_ = peeled.holds_when_empty;
  }
  rewritten_ = options_.optimize ? Optimize(base) : base;
  ITDB_ASSIGN_OR_RETURN(sorts_, InferSorts(db, rewritten_));
  // Parts share no variable, so the sorts above hold for each of them.
  plans_ = answer_ == Answer::kYesNo ? SplitIntoParts(rewritten_)
                                     : std::vector<QueryPtr>{rewritten_};
  if (!options_.cost_plan) return Status::Ok();
  // Cost-based physical planning: reorder AND-chains on the statistics.
  // Planning preserves variable sets, so the sorts above stay valid for the
  // planned trees.  Certified bounds: the analysis' interpreter certifies
  // each tree being planned so the planner can clamp its heuristics
  // (planner.h).  Its memo already holds the subtrees the optimized tree
  // shares with the parsed one, and its active domain was seeded from the
  // ORIGINAL query, as evaluation's is: rewrites may drop constants.
  analysis::AbstractInterpreter* interp = Analyze(db).interpreter.get();
  for (QueryPtr& plan : plans_) {
    if (interp != nullptr) interp->Interpret(plan);
    PlannedQuery planned =
        PlanQuery(db, plan, sorts_, options_.stats_cache, interp);
    plan = std::move(planned.query);
    estimates_.merge(planned.estimates);
  }
  obs::AddGlobalCounter("query.cost_plans", 1);
  return Status::Ok();
}

const analysis::CertificateMap& Prepared::certificates() const {
  static const analysis::CertificateMap kNone;
  // A planned statement was clamped by the analysis' interpreter, which
  // registered certificates for the AND nodes the planner rebuilt, so the
  // planned trees are fully annotated.
  const bool certified = options_.cost_plan && !plans_.empty() &&
                         analysis_->interpreter != nullptr;
  return certified ? analysis_->interpreter->certificates() : kNone;
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
