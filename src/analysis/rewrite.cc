#include "analysis/rewrite.h"

#include <algorithm>
#include <string>
#include <vector>

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::QueryPtr;

/// free(a) subset-of free(b); FreeVariables() returns sorted vectors.
bool FreeVarsSubset(const Query& a, const Query& b) {
  const std::vector<std::string> av = a.FreeVariables();
  const std::vector<std::string> bv = b.FreeVariables();
  return std::includes(bv.begin(), bv.end(), av.begin(), av.end());
}

/// No free variable of `q` is in `bound`.
bool FreeOfAll(const Query& q, const std::vector<std::string>& bound) {
  for (const std::string& v : q.FreeVariables()) {
    if (std::find(bound.begin(), bound.end(), v) != bound.end()) return false;
  }
  return true;
}

struct Rewriter {
  const std::set<const Query*>& empty;
  int removed = 0;
  /// Variables of the enclosing quantifiers.  A dead branch that mentions
  /// one keeps its OR: the optimizer pushes a quantifier through an OR only
  /// when one side lacks its variable (query/optimize.h miniscoping), so
  /// dropping such a branch first would let the quantifier sink into the
  /// survivor and change the evaluated plan -- and its representation.
  std::vector<std::string> bound;

  /// `dead` may be dropped from a non-negated OR with sibling `alive`.
  bool Droppable(const QueryPtr& dead, const QueryPtr& alive) const {
    return empty.contains(dead.get()) && FreeVarsSubset(*dead, *alive) &&
           FreeOfAll(*dead, bound);
  }

  /// `negated` mirrors the pending-negation flag of the optimizer's
  /// PushNegations: it flips at NOT, is inherited by AND / OR operands,
  /// and resets at an EXISTS body (the optimizer keeps the
  /// negation outside the quantifier).  Elimination only fires at
  /// non-negated OR nodes -- under a pending negation the optimizer turns
  /// the OR into an AND (De Morgan), and conjoining with the complement of
  /// an empty branch is semantically a no-op but not representation-
  /// preserving, which would break the bit-identity contract.
  QueryPtr Rewrite(const QueryPtr& q, bool negated) {
    switch (q->kind()) {
      case Query::Kind::kAtom:
      case Query::Kind::kCmp:
        return q;
      case Query::Kind::kAnd: {
        QueryPtr left = Rewrite(q->left(), negated);
        QueryPtr right = Rewrite(q->right(), negated);
        if (left == q->left() && right == q->right()) return q;
        return Rebuild(Query::And(std::move(left), std::move(right)), q);
      }
      case Query::Kind::kOr: {
        // Dead-branch elimination: dropping an empty branch whose free
        // variables the sibling covers appends zero tuples fewer to the
        // union -- bit-identical (see rewrite.h).
        if (!negated && Droppable(q->left(), q->right())) {
          ++removed;
          return Rewrite(q->right(), negated);
        }
        if (!negated && Droppable(q->right(), q->left())) {
          ++removed;
          return Rewrite(q->left(), negated);
        }
        QueryPtr left = Rewrite(q->left(), negated);
        QueryPtr right = Rewrite(q->right(), negated);
        if (left == q->left() && right == q->right()) return q;
        return Rebuild(Query::Or(std::move(left), std::move(right)), q);
      }
      case Query::Kind::kNot: {
        QueryPtr body = Rewrite(q->left(), !negated);
        if (body == q->left()) return q;
        return Rebuild(Query::Not(std::move(body)), q);
      }
      case Query::Kind::kExists: {
        bound.push_back(q->quantified_var());
        QueryPtr body = Rewrite(q->left(), /*negated=*/false);
        bound.pop_back();
        if (body == q->left()) return q;
        return Rebuild(Query::Exists(q->quantified_var(), std::move(body)), q);
      }
    }
    return q;
  }

  static QueryPtr Rebuild(QueryPtr node, const QueryPtr& original) {
    Query::SetSpans(node, original->span());
    return node;
  }
};

}  // namespace

QueryPtr EliminateDeadBranches(const QueryPtr& q,
                               const std::set<const Query*>& empty,
                               int* removed) {
  Rewriter rewriter{empty, 0, {}};
  QueryPtr out = rewriter.Rewrite(q, /*negated=*/false);
  if (removed != nullptr) *removed = rewriter.removed;
  return out;
}

}  // namespace analysis
}  // namespace itdb
