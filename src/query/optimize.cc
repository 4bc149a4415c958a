#include "query/optimize.h"

#include <algorithm>
#include <string>
#include <vector>

namespace itdb {
namespace query {

namespace {

bool IsFreeIn(const QueryPtr& q, const std::string& var) {
  std::vector<std::string> free = q->FreeVariables();
  return std::binary_search(free.begin(), free.end(), var);
}

/// Pushes negations toward the leaves.  `negate` is the pending polarity.
QueryPtr PushNegations(const QueryPtr& q, bool negate) {
  switch (q->kind()) {
    case Query::Kind::kAtom:
      return negate ? Query::Not(q) : q;
    case Query::Kind::kCmp:
      return negate
                 ? Query::Compare(q->lhs(), Negate(q->cmp()), q->rhs())
                 : q;
    case Query::Kind::kAnd: {
      QueryPtr l = PushNegations(q->left(), negate);
      QueryPtr r = PushNegations(q->right(), negate);
      return negate ? Query::Or(std::move(l), std::move(r))
                    : Query::And(std::move(l), std::move(r));
    }
    case Query::Kind::kOr: {
      QueryPtr l = PushNegations(q->left(), negate);
      QueryPtr r = PushNegations(q->right(), negate);
      return negate ? Query::And(std::move(l), std::move(r))
                    : Query::Or(std::move(l), std::move(r));
    }
    case Query::Kind::kNot:
      return PushNegations(q->left(), !negate);
    case Query::Kind::kExists: {
      // The pending negation stays outside the existential: the evaluator
      // complements a negated existential AFTER the projection (few
      // columns), whereas pushing it in would complement the un-projected
      // scope -- strictly more columns, exponentially worse (Table 3).
      QueryPtr body = PushNegations(q->left(), false);
      QueryPtr exists = Query::Exists(q->quantified_var(), std::move(body));
      return negate ? Query::Not(std::move(exists)) : exists;
    }
  }
  return q;
}

/// Bottom-up quantifier scope minimization.
QueryPtr ShrinkQuantifiers(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAtom:
    case Query::Kind::kCmp:
      return q;
    case Query::Kind::kAnd:
      return Query::And(ShrinkQuantifiers(q->left()),
                        ShrinkQuantifiers(q->right()));
    case Query::Kind::kOr:
      return Query::Or(ShrinkQuantifiers(q->left()),
                       ShrinkQuantifiers(q->right()));
    case Query::Kind::kNot:
      return Query::Not(ShrinkQuantifiers(q->left()));
    case Query::Kind::kExists: {
      const std::string& var = q->quantified_var();
      QueryPtr body = ShrinkQuantifiers(q->left());
      if (!IsFreeIn(body, var)) return body;  // Vacuous (domains nonempty).
      // Push through AND/OR when one side does not mention the variable.
      if (body->kind() == Query::Kind::kAnd ||
          body->kind() == Query::Kind::kOr) {
        const bool in_left = IsFreeIn(body->left(), var);
        const bool in_right = IsFreeIn(body->right(), var);
        auto rebuild = [&body](QueryPtr l, QueryPtr r) {
          return body->kind() == Query::Kind::kAnd
                     ? Query::And(std::move(l), std::move(r))
                     : Query::Or(std::move(l), std::move(r));
        };
        if (in_left && !in_right) {
          return rebuild(ShrinkQuantifiers(Query::Exists(var, body->left())),
                         body->right());
        }
        if (!in_left && in_right) {
          return rebuild(body->left(),
                         ShrinkQuantifiers(Query::Exists(var, body->right())));
        }
      }
      return Query::Exists(var, std::move(body));
    }
  }
  return q;
}

}  // namespace

QueryPtr Optimize(const QueryPtr& q) {
  QueryPtr current = q;
  std::string fingerprint = current->ToString();
  // Negation pushing can expose new shrink opportunities and vice versa;
  // iterate to a fixpoint (bounded -- each pass only shrinks scopes).
  for (int round = 0; round < 16; ++round) {
    QueryPtr next = ShrinkQuantifiers(PushNegations(current, false));
    std::string next_fingerprint = next->ToString();
    if (next_fingerprint == fingerprint) break;
    current = std::move(next);
    fingerprint = std::move(next_fingerprint);
  }
  return current;
}

}  // namespace query
}  // namespace itdb
