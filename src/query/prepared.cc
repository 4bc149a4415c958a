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

/// The body under the maximal run of one quantifier kind at the root of a
/// closed formula: `EXISTS x1 ... xk . phi` peels to phi, `FORALL x1 ... xk
/// . phi` to NOT phi with `*holds_when_empty` set.  Any other root is its
/// own body.  `vars`, when given, receives x1 ... xk.
QueryPtr PeelQuantifierPrefix(QueryPtr q, bool* holds_when_empty,
                              std::vector<std::string>* vars = nullptr) {
  const Query::Kind kind = q->kind();
  *holds_when_empty = kind == Query::Kind::kForall;
  if (kind != Query::Kind::kExists && kind != Query::Kind::kForall) return q;
  while (q->kind() == kind) {
    if (vars != nullptr) vars->push_back(q->quantified_var());
    q = q->left();
  }
  return *holds_when_empty ? Query::Not(std::move(q)) : q;
}

/// The parts of a peeled body: the maximal groups of its top AND chain's
/// conjuncts connected by shared free variables, each rebuilt as a
/// left-deep AND in chain order, ordered by first conjunct.  A body of one
/// part is returned as is.
std::vector<QueryPtr> SplitIntoParts(const QueryPtr& body) {
  std::vector<QueryPtr> conjuncts;
  FlattenConjuncts(body, &conjuncts);
  // part[i]: the group of conjunct i, the index of its first conjunct.
  std::vector<std::size_t> part(conjuncts.size());
  std::map<std::string, std::size_t> owner;  // Variable -> its group.
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    part[i] = i;
    for (const std::string& v : conjuncts[i]->FreeVariables()) {
      auto [it, fresh] = owner.emplace(v, part[i]);
      if (fresh || part[i] == it->second) continue;
      // Merge the later group into the earlier one.
      const std::size_t from = std::max(part[i], it->second);
      const std::size_t to = std::min(part[i], it->second);
      for (std::size_t& p : part) {
        if (p == from) p = to;
      }
      for (auto& [var, group] : owner) {
        if (group == from) group = to;
      }
    }
  }
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

const QueryPtr& Prepared::optimized() {
  if (optimized_ != nullptr) return optimized_;
  if (answer_ == Answer::kRelation) {
    optimized_ = options_.optimize ? Optimize(query_) : query_;
    return optimized_;
  }
  // The shape is built around the optimized body so that Compile, when no
  // sound rewrite applies, plans that body without a second Optimize.
  std::vector<std::string> vars;
  QueryPtr body = PeelQuantifierPrefix(query_, &holds_when_empty_, &vars);
  optimized_body_ = options_.optimize ? Optimize(body) : body;
  optimized_ = optimized_body_;
  for (auto v = vars.rbegin(); v != vars.rend(); ++v) {
    optimized_ = Query::Exists(*v, optimized_);
  }
  if (holds_when_empty_) optimized_ = Query::Not(optimized_);
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
  // ApplySoundRewrites returns its input when nothing applies: then the
  // plan shape's Optimize is the one evaluation needs.
  if (base == query_) {
    rewritten_ = optimized();
    if (answer_ == Answer::kYesNo) rewritten_ = optimized_body_;
  } else {
    // A yes/no statement plans only its peeled body, peeled before
    // Optimize miniscopes the root quantifiers into the AND chain.
    if (answer_ == Answer::kYesNo) {
      base = PeelQuantifierPrefix(std::move(base), &holds_when_empty_);
    }
    rewritten_ = options_.optimize ? Optimize(base) : base;
  }
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
