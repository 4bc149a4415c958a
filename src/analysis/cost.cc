#include "analysis/cost.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "core/lrp.h"
#include "core/relation.h"
#include "core/tuple.h"
#include "util/numeric.h"

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
  const Database& db;
  const SortMap& sorts;
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

  /// Returns the lcm of all relation periods reachable from `q`, or
  /// nullopt once the lcm has overflowed int64 (treated as "huge").
  /// `in_chain` is true when the parent node is already part of the same
  /// AND-chain, so the cross-product check only runs at the chain root.
  std::optional<std::int64_t> Walk(const Query& q, bool in_chain = false) {
    switch (q.kind()) {
      case Query::Kind::kAtom: {
        std::optional<std::int64_t> lcm = 1;
        Result<GeneralizedRelation> rel = db.Get(q.relation());
        if (!rel.ok()) return lcm;
        for (const GeneralizedTuple& t : rel.value().tuples()) {
          for (const Lrp& lrp : t.temporal()) {
            if (lrp.period() == 0) continue;
            if (!lcm.has_value()) return std::nullopt;
            Result<std::int64_t> next = Lcm(*lcm, lrp.period());
            lcm = next.ok() ? std::optional<std::int64_t>(next.value())
                            : std::nullopt;
          }
        }
        return lcm;
      }
      case Query::Kind::kCmp:
        return 1;
      case Query::Kind::kAnd: {
        std::optional<std::int64_t> left = Walk(*q.left(), /*in_chain=*/true);
        std::optional<std::int64_t> right = Walk(*q.right(), /*in_chain=*/true);
        if (!in_chain && ChainIsCrossProduct(q)) {
          Warn(out, diag::kCrossProduct, q.span(),
               "conjunction operands share no attributes; the join "
               "degenerates to a cross product",
               "join the operands on a shared variable, or evaluate them "
               "separately");
        }
        return Combine(left, right);
      }
      case Query::Kind::kOr:
        return Combine(Walk(*q.left()), Walk(*q.right()));
      case Query::Kind::kNot: {
        WarnComplement(q, "complement");
        return Walk(*q.left());
      }
      case Query::Kind::kExists:
        return Walk(*q.left());
      case Query::Kind::kForall: {
        WarnComplement(q, "universal quantifier (two complements)");
        return Walk(*q.left());
      }
    }
    return 1;
  }

  void WarnComplement(const Query& q, std::string_view what) {
    int width = FreeTemporalWidth(*q.left(), sorts);
    if (width < kComplementWidthThreshold) return;
    Warn(out, diag::kExpensiveComplement, q.span(),
         std::string(what) + " over " + std::to_string(width) +
             " temporal columns: nonemptiness of complements is NP-complete "
             "(Theorem 3.5) and the normal form can grow exponentially");
  }

  static std::optional<std::int64_t> Combine(std::optional<std::int64_t> a,
                                             std::optional<std::int64_t> b) {
    if (!a.has_value() || !b.has_value()) return std::nullopt;
    Result<std::int64_t> lcm = Lcm(*a, *b);
    if (!lcm.ok()) return std::nullopt;
    return lcm.value();
  }
};

}  // namespace

void CostDiagnostics(const Database& db, const Query& q, const SortMap& sorts,
                     std::vector<Diagnostic>* out) {
  CostWalker walker{db, sorts, out};
  std::optional<std::int64_t> lcm = walker.Walk(q);
  if (!lcm.has_value()) {
    Warn(out, diag::kPeriodBlowup, q.span(),
         "the periods reachable from this query compose to an lcm beyond "
         "int64; normalization may expand tuples massively");
  } else if (*lcm > kPeriodBlowupThreshold) {
    Warn(out, diag::kPeriodBlowup, q.span(),
         "the periods reachable from this query compose to lcm " +
             std::to_string(*lcm) + " (threshold " +
             std::to_string(kPeriodBlowupThreshold) +
             "); normalization may expand each tuple by that factor");
  }
}

}  // namespace analysis
}  // namespace itdb
