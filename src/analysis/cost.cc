#include "analysis/cost.h"

#include <algorithm>
#include <set>
#include <string>

#include "analysis/absint.h"

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::Sort;
using query::SortMap;

void Warn(std::vector<Diagnostic>* out, std::string_view code,
          const SourceSpan& span, std::string message, std::string fixit = "") {
  out->push_back(Diagnostic{Severity::kWarning, std::string(code), span,
                            std::move(message), std::move(fixit)});
}

int FreeTemporalWidth(const Query& q, const SortMap& sorts) {
  int width = 0;
  for (const std::string& var : q.FreeVariables()) {
    auto it = sorts.find(var);
    if (it != sorts.end() && it->second == Sort::kTime) ++width;
  }
  return width;
}

struct CostWalker {
  const SortMap& sorts;
  const Query* parts;  // A chain answered part by part: no A011.
  std::vector<Diagnostic>* out;

  /// True when the variable-sharing graph over the conjuncts of the
  /// AND-chain rooted at `q` is disconnected: some group of conjuncts
  /// shares no variable with the rest, so their join degenerates to a
  /// cross product.  Checked over the MAXIMAL chain -- a comparison
  /// elsewhere in the chain can connect two otherwise-disjoint atoms.
  static bool ChainIsCrossProduct(const Query& q) {
    std::vector<const Query*> conjuncts;
    FlattenConjuncts(q, conjuncts);
    std::vector<std::set<std::string>> components;
    for (const Query* c : conjuncts) {
      std::vector<std::string> fv = c->FreeVariables();
      if (fv.empty()) continue;
      std::set<std::string> merged(fv.begin(), fv.end());
      std::vector<std::set<std::string>> rest;
      for (std::set<std::string>& comp : components) {
        bool touches =
            std::any_of(merged.begin(), merged.end(),
                        [&](const std::string& v) { return comp.count(v); });
        if (touches) {
          merged.insert(comp.begin(), comp.end());
        } else {
          rest.push_back(std::move(comp));
        }
      }
      rest.push_back(std::move(merged));
      components = std::move(rest);
    }
    return components.size() > 1;
  }

  static void FlattenConjuncts(const Query& q, std::vector<const Query*>& out) {
    if (q.kind() == Query::Kind::kAnd) {
      FlattenConjuncts(*q.left(), out);
      FlattenConjuncts(*q.right(), out);
      return;
    }
    out.push_back(&q);
  }

  /// `in_chain` is true when the parent node is already part of the same
  /// AND-chain, so the cross-product check only runs at the chain root.
  void Walk(const Query& q, bool in_chain = false) {
    switch (q.kind()) {
      case Query::Kind::kAtom:
      case Query::Kind::kCmp:
        return;
      case Query::Kind::kAnd:
        Walk(*q.left(), /*in_chain=*/true);
        Walk(*q.right(), /*in_chain=*/true);
        if (!in_chain && &q != parts && ChainIsCrossProduct(q)) {
          Warn(out, diag::kCrossProduct, q.span(),
               "conjunction operands share no attributes; the join "
               "degenerates to a cross product",
               "join the operands on a shared variable, or evaluate them "
               "separately");
        }
        return;
      case Query::Kind::kOr:
        Walk(*q.left());
        Walk(*q.right());
        return;
      case Query::Kind::kNot:
        WarnComplement(q, "complement");
        Walk(*q.left());
        return;
      case Query::Kind::kExists:
        Walk(*q.left());
        return;
      case Query::Kind::kForall:
        WarnComplement(q, "universal quantifier (two complements)");
        Walk(*q.left());
        return;
    }
  }

  void WarnComplement(const Query& q, std::string_view what) {
    int width = FreeTemporalWidth(*q.left(), sorts);
    if (width < kComplementWidthThreshold) return;
    Warn(out, diag::kExpensiveComplement, q.span(),
         std::string(what) + " over " + std::to_string(width) +
             " temporal columns: nonemptiness of complements is NP-complete "
             "(Theorem 3.5) and the normal form can grow exponentially");
  }
};

}  // namespace

void CostDiagnostics(const Query& q, const SortMap& sorts,
                     std::optional<std::int64_t> root_lcm,
                     const Query* parts, std::vector<Diagnostic>* out) {
  CostWalker walker{sorts, parts, out};
  walker.Walk(q);
  if (!root_lcm.has_value()) {
    Warn(out, diag::kPeriodBlowup, q.span(),
         "the periods reachable from this query compose to an lcm beyond " +
             std::to_string(kMaxCertifiedLcm) +
             "; normalization may expand tuples massively");
  } else if (*root_lcm > kPeriodBlowupThreshold) {
    Warn(out, diag::kPeriodBlowup, q.span(),
         "the periods reachable from this query compose to lcm " +
             std::to_string(*root_lcm) + " (threshold " +
             std::to_string(kPeriodBlowupThreshold) +
             "); normalization may expand each tuple by that factor");
  }
}

}  // namespace analysis
}  // namespace itdb
