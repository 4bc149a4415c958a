#include "query/sorts.h"

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace itdb {
namespace query {

namespace {

const char* SortName(Sort s) {
  return s == Sort::kTime ? "time" : s == Sort::kDataString ? "string" : "int";
}

/// One = / != edge whose endpoint sorts must agree.
struct SortLink {
  std::string a;
  std::string b;
  SourceSpan span;
};

struct InferenceState {
  const Database& db;
  SortMap sorts;
  std::vector<SortLink> links;
  std::vector<Diagnostic> diagnostics;
  std::map<std::string, SourceSpan> var_spans;
  // Variables that occur in an atom or comparison (vs. only a quantifier).
  std::set<std::string> used;

  void Report(std::string_view code, const SourceSpan& span,
              std::string message) {
    diagnostics.push_back(Diagnostic{Severity::kError, std::string(code), span,
                                     std::move(message), ""});
  }

  void SeeVariable(const std::string& var, const SourceSpan& span) {
    used.insert(var);
    var_spans.emplace(var, span);  // Keeps the first occurrence.
  }

  /// Records var: sort; on a clash emits `conflict_code` (A003 for atom- or
  /// offset-forced sorts, A004 for constant-forced ones).
  void Assign(const std::string& var, Sort sort, const SourceSpan& span,
              std::string_view conflict_code = diag::kConflictingSorts) {
    auto [it, inserted] = sorts.emplace(var, sort);
    if (!inserted && it->second != sort) {
      Report(conflict_code, span,
             "variable \"" + var + "\" used with conflicting sorts (" +
                 SortName(it->second) + " vs " + SortName(sort) + ")");
    }
  }
};

void CollectVariables(InferenceState& state, const Query& q,
                      std::set<std::string>& bound,
                      std::set<std::string>& seen_quantified,
                      std::set<std::string>& all,
                      std::vector<std::string>& quantified) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      for (const Term& t : q.args()) {
        if (t.kind == Term::Kind::kVariable) all.insert(t.var);
      }
      return;
    case Query::Kind::kCmp:
      for (const Term* t : {&q.lhs(), &q.rhs()}) {
        if (t->kind == Term::Kind::kVariable) all.insert(t->var);
      }
      return;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectVariables(state, *q.left(), bound, seen_quantified, all,
                       quantified);
      CollectVariables(state, *q.right(), bound, seen_quantified, all,
                       quantified);
      return;
    case Query::Kind::kNot:
      CollectVariables(state, *q.left(), bound, seen_quantified, all,
                       quantified);
      return;
    case Query::Kind::kExists: {
      const std::string& var = q.quantified_var();
      if (!seen_quantified.insert(var).second || bound.contains(var)) {
        state.Report(
            diag::kShadowedVariable, q.span(),
            "variable \"" + var +
                "\" is quantified more than once (shadowing is not "
                "supported)");
      }
      quantified.push_back(var);
      state.var_spans.emplace(var, q.span());
      bool inserted = bound.insert(var).second;
      CollectVariables(state, *q.left(), bound, seen_quantified, all,
                       quantified);
      if (inserted) bound.erase(var);
      all.insert(var);
      return;
    }
  }
}

void Walk(InferenceState& state, const Query& q) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      for (std::size_t i = 0; i < q.args().size(); ++i) {
        const Term& t = q.args()[i];
        if (t.kind == Term::Kind::kVariable) {
          state.SeeVariable(t.var, q.TermSpan(i));
        }
      }
      Result<GeneralizedRelation> rel = state.db.Get(q.relation());
      if (!rel.ok()) {
        state.Report(diag::kUnknownRelation, q.span(),
                     std::string(rel.status().message()));
        return;
      }
      const Schema& schema = rel.value().schema();
      int expected = schema.temporal_arity() + schema.data_arity();
      if (static_cast<int>(q.args().size()) != expected) {
        state.Report(diag::kArityMismatch, q.span(),
                     "relation \"" + q.relation() + "\" expects " +
                         std::to_string(expected) + " arguments, got " +
                         std::to_string(q.args().size()));
        return;
      }
      for (int i = 0; i < expected; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const Term& t = q.args()[ui];
        const SourceSpan& span = q.TermSpan(ui);
        bool temporal_pos = i < schema.temporal_arity();
        Sort position_sort =
            temporal_pos ? Sort::kTime
            : schema.data_type(i - schema.temporal_arity()) == DataType::kInt
                ? Sort::kDataInt
                : Sort::kDataString;
        switch (t.kind) {
          case Term::Kind::kVariable:
            state.Assign(t.var, position_sort, span);
            if (t.number != 0 && position_sort != Sort::kTime) {
              state.Report(diag::kConflictingSorts, span,
                           "successor offset on non-temporal variable \"" +
                               t.var + "\"");
            }
            break;
          case Term::Kind::kInt:
            if (position_sort == Sort::kDataString) {
              state.Report(diag::kIncompatibleConstant, span,
                           "integer constant in string position of \"" +
                               q.relation() + "\"");
            }
            break;
          case Term::Kind::kString:
            if (position_sort != Sort::kDataString) {
              state.Report(diag::kIncompatibleConstant, span,
                           "string constant in non-string position of \"" +
                               q.relation() + "\"");
            }
            break;
        }
      }
      return;
    }
    case Query::Kind::kCmp: {
      bool order = q.cmp() != CmpOp::kEq && q.cmp() != CmpOp::kNe;
      const Term& l = q.lhs();
      const Term& r = q.rhs();
      for (std::size_t i = 0; i < 2; ++i) {
        const Term& t = i == 0 ? l : r;
        if (t.kind != Term::Kind::kVariable) continue;
        state.SeeVariable(t.var, q.TermSpan(i));
        if (order || t.number != 0) {
          state.Assign(t.var, Sort::kTime, q.TermSpan(i));
        }
      }
      // Constants force the sort of variable operands.
      if (l.kind == Term::Kind::kVariable && r.kind == Term::Kind::kString) {
        state.Assign(l.var, Sort::kDataString, q.TermSpan(0),
                     diag::kIncompatibleConstant);
      }
      if (r.kind == Term::Kind::kVariable && l.kind == Term::Kind::kString) {
        state.Assign(r.var, Sort::kDataString, q.TermSpan(1),
                     diag::kIncompatibleConstant);
      }
      if (l.kind == Term::Kind::kVariable && r.kind == Term::Kind::kInt) {
        state.Assign(l.var, Sort::kTime, q.TermSpan(0),
                     diag::kIncompatibleConstant);
      }
      if (r.kind == Term::Kind::kVariable && l.kind == Term::Kind::kInt) {
        state.Assign(r.var, Sort::kTime, q.TermSpan(1),
                     diag::kIncompatibleConstant);
      }
      if (l.kind == Term::Kind::kVariable && r.kind == Term::Kind::kVariable) {
        state.links.push_back(SortLink{l.var, r.var, q.span()});
      }
      if (l.kind == Term::Kind::kString && r.kind == Term::Kind::kString &&
          order) {
        state.Report(diag::kIncompatibleConstant, q.span(),
                     "order comparison between string constants");
      }
      return;
    }
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      Walk(state, *q.left());
      Walk(state, *q.right());
      return;
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      Walk(state, *q.left());
      return;
  }
}

}  // namespace

SortDiagnostics InferSortsDiagnosed(const Database& db, const QueryPtr& q,
                                    bool strict_unused_quantified) {
  InferenceState state{db, {}, {}, {}, {}, {}};
  std::set<std::string> bound;
  std::set<std::string> seen_quantified;
  std::set<std::string> all;
  std::vector<std::string> quantified;
  // Reject shadowing first, so the single global SortMap is well defined.
  CollectVariables(state, *q, bound, seen_quantified, all, quantified);
  Walk(state, *q);
  // Propagate along = / != links to a fixpoint; propagation only fills in
  // unknowns, so it terminates and cannot introduce conflicts.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const SortLink& link : state.links) {
      auto ia = state.sorts.find(link.a);
      auto ib = state.sorts.find(link.b);
      if (ia != state.sorts.end() && ib == state.sorts.end()) {
        state.sorts.emplace(link.b, ia->second);
        changed = true;
      } else if (ib != state.sorts.end() && ia == state.sorts.end()) {
        state.sorts.emplace(link.a, ib->second);
        changed = true;
      }
    }
  }
  for (const SortLink& link : state.links) {
    auto ia = state.sorts.find(link.a);
    auto ib = state.sorts.find(link.b);
    if (ia != state.sorts.end() && ib != state.sorts.end() &&
        ia->second != ib->second) {
      state.Report(diag::kMixedSortComparison, link.span,
                   "variables \"" + link.a + "\" and \"" + link.b +
                       "\" compared but have different sorts");
    }
  }
  // Undetermined variables, only when nothing went wrong earlier (an
  // unknown relation already explains why its variables have no sort).
  if (!HasErrors(state.diagnostics)) {
    std::set<std::string> quantified_set(quantified.begin(), quantified.end());
    for (const std::string& var : all) {
      if (state.sorts.contains(var)) continue;
      if (!strict_unused_quantified && !state.used.contains(var) &&
          quantified_set.contains(var)) {
        continue;  // Vacuous quantifier; the analyzer reports A013 instead.
      }
      SourceSpan span;
      auto it = state.var_spans.find(var);
      if (it != state.var_spans.end()) span = it->second;
      state.Report(diag::kUndeterminedSort, span,
                   "cannot infer the sort of variable \"" + var + "\"");
    }
  }
  SortDiagnostics out;
  out.sorts = std::move(state.sorts);
  out.diagnostics = std::move(state.diagnostics);
  out.var_spans = std::move(state.var_spans);
  out.quantified = std::move(quantified);
  return out;
}

Result<SortMap> InferSorts(const Database& db, const QueryPtr& q) {
  SortDiagnostics d =
      InferSortsDiagnosed(db, q, /*strict_unused_quantified=*/true);
  for (const Diagnostic& diagnostic : d.diagnostics) {
    if (diagnostic.severity != Severity::kError) continue;
    if (diagnostic.code == diag::kUnknownRelation) {
      return Status::NotFound(diagnostic.message);
    }
    return Status::InvalidArgument(diagnostic.message);
  }
  return std::move(d.sorts);
}

namespace {

void CollectQueryConstants(const Query& q, std::set<Value>& strings,
                           std::set<Value>& ints, const Database& db) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      Result<GeneralizedRelation> rel = db.Get(q.relation());
      if (!rel.ok()) return;  // Reported later by sort inference.
      const Schema& schema = rel.value().schema();
      for (std::size_t i = 0; i < q.args().size(); ++i) {
        const Term& t = q.args()[i];
        bool data_pos = static_cast<int>(i) >= schema.temporal_arity();
        if (t.kind == Term::Kind::kString) {
          strings.insert(Value(t.text));
        } else if (t.kind == Term::Kind::kInt && data_pos) {
          ints.insert(Value(t.number));
        }
      }
      break;
    }
    case Query::Kind::kCmp:
      for (const Term* t : {&q.lhs(), &q.rhs()}) {
        if (t->kind == Term::Kind::kString) strings.insert(Value(t->text));
      }
      break;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectQueryConstants(*q.left(), strings, ints, db);
      CollectQueryConstants(*q.right(), strings, ints, db);
      break;
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      CollectQueryConstants(*q.left(), strings, ints, db);
      break;
  }
}

}  // namespace

ActiveDomain ComputeActiveDomain(const Database& db, const Query& q) {
  std::set<Value> strings;
  std::set<Value> ints;
  for (const std::string& name : db.Names()) {
    Result<GeneralizedRelation> rel = db.Get(name);
    if (!rel.ok()) continue;
    for (const GeneralizedTuple& t : rel.value().tuples()) {
      for (const Value& v : t.data()) {
        (v.IsString() ? strings : ints).insert(v);
      }
    }
  }
  CollectQueryConstants(q, strings, ints, db);
  ActiveDomain out;
  out.strings.assign(strings.begin(), strings.end());
  out.ints.assign(ints.begin(), ints.end());
  return out;
}

}  // namespace query
}  // namespace itdb
