#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost.h"
#include "analysis/rewrite.h"
#include "obs/metrics.h"

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::QueryPtr;
using query::Sort;
using query::SortMap;
using query::Term;

void Report(std::vector<Diagnostic>* out, Severity severity,
            std::string_view code, const SourceSpan& span, std::string message,
            std::string fixit = "") {
  out->push_back(Diagnostic{severity, std::string(code), span,
                            std::move(message), std::move(fixit)});
}

bool IsDataSort(const SortMap& sorts, const std::string& var) {
  auto it = sorts.find(var);
  return it != sorts.end() && it->second != Sort::kTime;
}

/// Structural checks the sort pass does not cover: comparisons that the
/// evaluator would reject at run time (A004, A007) and quantifiers whose
/// variable never occurs in the body (A013).  The A004/A007 cases are
/// errors on purpose -- evaluation is guaranteed to fail on them, and
/// flagging them statically is what keeps "analysis passed" aligned with
/// "evaluation will not type-fail" (the rewriter may only remove dead
/// branches because anything that fails inside one fails here first).
void CheckStructure(const Query& q, const SortMap& sorts,
                    std::vector<Diagnostic>* out) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      return;
    case Query::Kind::kCmp: {
      const Term& l = q.lhs();
      const Term& r = q.rhs();
      bool l_const = l.kind != Term::Kind::kVariable;
      bool r_const = r.kind != Term::Kind::kVariable;
      if (l_const && r_const && l.kind != r.kind) {
        Report(out, Severity::kError, diag::kIncompatibleConstant, q.span(),
               "comparison between a string and an integer constant");
      }
      if (!l_const && !r_const && l.var == r.var && IsDataSort(sorts, l.var)) {
        Report(out, Severity::kError, diag::kMixedSortComparison, q.span(),
               "data variable \"" + l.var + "\" compared with itself",
               "a data variable never differs from itself; drop the "
               "comparison");
      }
      return;
    }
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CheckStructure(*q.left(), sorts, out);
      CheckStructure(*q.right(), sorts, out);
      return;
    case Query::Kind::kNot:
      CheckStructure(*q.left(), sorts, out);
      return;
    case Query::Kind::kExists: {
      const std::vector<std::string> free = q.left()->FreeVariables();
      if (!std::binary_search(free.begin(), free.end(), q.quantified_var())) {
        Report(out, Severity::kWarning, diag::kVacuousQuantifier, q.span(),
               "quantified variable \"" + q.quantified_var() +
                   "\" does not occur in the body",
               "remove the quantifier");
      }
      CheckStructure(*q.left(), sorts, out);
      return;
    }
  }
}

/// Collects variables bound by a positively-polarized atom or a
/// positively-polarized equality with a constant.  Polarity flips at NOT
/// only, so a FORALL body, under the two complements of NOT EXISTS NOT,
/// keeps its polarity.
void CollectBinders(const Query& q, bool positive,
                    std::set<std::string>* binders) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      if (positive) {
        for (const Term& t : q.args()) {
          if (t.kind == Term::Kind::kVariable) binders->insert(t.var);
        }
      }
      return;
    case Query::Kind::kCmp:
      if (positive && q.cmp() == CmpOp::kEq) {
        const Term& l = q.lhs();
        const Term& r = q.rhs();
        if (l.kind == Term::Kind::kVariable &&
            r.kind != Term::Kind::kVariable) {
          binders->insert(l.var);
        }
        if (r.kind == Term::Kind::kVariable &&
            l.kind != Term::Kind::kVariable) {
          binders->insert(r.var);
        }
      }
      return;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectBinders(*q.left(), positive, binders);
      CollectBinders(*q.right(), positive, binders);
      return;
    case Query::Kind::kNot:
      CollectBinders(*q.left(), !positive, binders);
      return;
    case Query::Kind::kExists:
      CollectBinders(*q.left(), positive, binders);
      return;
  }
}

void SafetyPass(const Query& q, const SortMap& sorts,
                const std::map<std::string, SourceSpan>& var_spans,
                std::vector<Diagnostic>* out) {
  std::set<std::string> binders;
  CollectBinders(q, /*positive=*/true, &binders);
  // sorts is a std::map, so the warnings come out in variable-name order.
  for (const auto& [var, sort] : sorts) {
    if (sort == Sort::kTime || binders.contains(var)) continue;
    SourceSpan span;
    auto it = var_spans.find(var);
    if (it != var_spans.end()) span = it->second;
    Report(out, Severity::kWarning, diag::kUnsafeDataVariable, span,
           "data variable \"" + var +
               "\" is not bound by a positive atom and ranges over the "
               "whole active domain",
           "bind \"" + var + "\" with a relation atom or an equality with "
                             "a constant");
  }
}

/// Emits A009 at each MAXIMAL proven-empty node (reporting every empty
/// descendant of an empty node would just repeat the same fact).  The
/// EXISTS and inner NOT a parsed FORALL desugars to carry their parent's
/// span (query/parser.cc) and are looked through: `FORALL t . NOT e` with
/// e empty reports e, the subquery written, not the hidden EXISTS t . NOT
/// NOT e.
void ReportEmpty(const Query& q, const SourceSpan& parent,
                 const std::set<const Query*>& empty,
                 std::vector<Diagnostic>* out) {
  const bool desugared = q.span().known() && q.span().begin == parent.begin &&
                         q.span().end == parent.end;
  if (empty.contains(&q) && !desugared) {
    Report(out, Severity::kWarning, diag::kStaticallyEmpty, q.span(),
           "subquery is statically empty: no tuple can satisfy it against "
           "the current database");
    return;
  }
  switch (q.kind()) {
    case Query::Kind::kAtom:
    case Query::Kind::kCmp:
      return;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      ReportEmpty(*q.left(), q.span(), empty, out);
      ReportEmpty(*q.right(), q.span(), empty, out);
      return;
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      ReportEmpty(*q.left(), q.span(), empty, out);
      return;
  }
}

}  // namespace

AnalysisResult Analyze(const Database& db, const QueryPtr& q,
                       const AnalyzeOptions& options) {
  AnalysisResult result;
  result.root = q;
  // Spans only when the caller wired a tracer explicitly: an untraced
  // evaluation must not open spans (see QueryOptions::trace), and a
  // nullptr tracer makes Span::Begin a no-op.
  obs::Span span = obs::Span::Begin(options.tracer, "analyze", "analysis");

  // Pass 1: sorts + structure.  Non-strict mode: a vacuous quantifier is
  // A013 below, not an A006 error -- the optimizer drops such quantifiers
  // before legacy sort inference ever sees them, and analysis must not be
  // stricter than the evaluation it guards.
  query::SortDiagnostics sorted =
      query::InferSortsDiagnosed(db, q, /*strict_unused_quantified=*/false);
  result.diagnostics = std::move(sorted.diagnostics);
  result.sorts = sorted.sorts;
  CheckStructure(*q, result.sorts, &result.diagnostics);

  // Passes 2-4 need a valid SortMap.
  if (!result.HasErrors()) {
    SafetyPass(*q, result.sorts, sorted.var_spans, &result.diagnostics);

    // Pass 3: abstract interpretation.  A node with zero certified rows
    // evaluates to zero tuples; one with an infeasible zone denotes the
    // empty set.
    result.interpreter = std::make_shared<AbstractInterpreter>(
        db, result.sorts, options.stats_cache);
    const Certificate& root = result.interpreter->Interpret(q);
    result.root_certificate = root;
    for (const auto& [node, cert] : result.interpreter->certificates()) {
      if (cert.rows == 0) result.proven_bit_empty.insert(node);
      if (cert.ProvenEmpty()) result.proven_empty.insert(node);
    }
    result.root_proven_empty = root.ProvenEmpty();
    result.root_proven_bit_empty = root.rows == 0;
    ReportEmpty(*q, SourceSpan(), result.proven_empty, &result.diagnostics);

    // Pass 4: the cost heuristics, with A012 reading the root lcm, then
    // the certified counterpart A014 and uncertifiable queries (A017).
    CostDiagnostics(*q, result.sorts, root.lcm,
                    options.yes_no ? query::PeelQuantifierPrefix(q).body.get()
                                   : nullptr,
                    &result.diagnostics);
    if (root.rows.has_value() && *root.rows > kCertifiedRowsThreshold) {
      Report(&result.diagnostics, Severity::kWarning,
             diag::kCertifiedHugeCardinality, q->span(),
             "certified result size is huge: up to " +
                 std::to_string(*root.rows) +
                 " generalized tuples (threshold " +
                 std::to_string(kCertifiedRowsThreshold) + ")");
    }
    if (!root.bounded()) {
      Report(&result.diagnostics, Severity::kNote,
             diag::kUnboundedCertificate, q->span(),
             "no finite certificate: the result's " +
                 std::string(!root.rows.has_value() ? "cardinality"
                                                    : "period structure") +
                 " cannot be bounded statically" +
                 std::string(!root.rows.has_value() && !root.lcm.has_value()
                                 ? " (nor its period structure)"
                                 : ""));
    }
    obs::AddGlobalCounter(
        "analysis.certificates",
        static_cast<std::int64_t>(result.interpreter->certificates().size()));
  }

  span.AddArg("diagnostics",
              static_cast<std::int64_t>(result.diagnostics.size()));
  span.AddArg("errors", result.errors());
  span.AddArg("proven_empty",
              static_cast<std::int64_t>(result.proven_empty.size()));
  obs::AddGlobalCounter("analysis.runs", 1);
  obs::AddGlobalCounter("analysis.diagnostics",
                        static_cast<std::int64_t>(result.diagnostics.size()));
  if (!result.proven_empty.empty()) {
    obs::AddGlobalCounter(
        "analysis.proven_empty",
        static_cast<std::int64_t>(result.proven_empty.size()));
  }
  return result;
}

QueryPtr ApplySoundRewrites(const QueryPtr& q, const AnalysisResult& analysis,
                            int* removed) {
  int count = 0;
  QueryPtr out = EliminateDeadBranches(q, analysis.proven_bit_empty, &count);
  if (removed != nullptr) *removed = count;
  if (count > 0) obs::AddGlobalCounter("analysis.dead_branches", count);
  return out;
}

}  // namespace analysis
}  // namespace itdb
