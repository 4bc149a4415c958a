// Logical query optimization.
//
// The evaluator compiles negation to the Appendix A.6 complement, whose
// cost is exponential in the number of columns of its operand (Table 3 of
// the paper).  The classical countermeasure is *miniscoping*: push
// quantifiers (and negations) inward so complements run over as few
// columns as possible.  Rewrites applied, all standard equivalences of
// first-order logic:
//
//   NOT NOT phi                      -> phi
//   NOT (phi AND psi)                -> NOT phi OR NOT psi     (toward atoms)
//   NOT (phi OR psi)                 -> NOT phi AND NOT psi
//   (but NOT EXISTS stays as written: the evaluator complements a negated
//    existential after its projection, which is the cheap direction)
//   NOT (t1 cmp t2)                  -> t1 cmp' t2   (comparison negation)
//   EXISTS v . phi                   -> phi             if v not free in phi
//   EXISTS v . (phi AND psi)         -> phi AND EXISTS v . psi   if v not
//                                       free in phi (and symmetrically)
//   EXISTS v . (phi OR psi)          -> phi OR EXISTS v . psi    if v not
//                                       free in phi (and symmetrically)
//
// FORALL is parse-level sugar for NOT EXISTS NOT (query/ast.h), so the
// rules above cover it: a universal reaches this pass as a negated
// existential over a negated body, and the negation pushing takes the
// inner NOT into the body at the arity it needs.
//
// Quantifier-duplicating distributions (EXISTS over OR into both branches)
// are deliberately NOT applied: they would quantify the same variable name
// twice, which the sort-inference pass rejects.
//
// The rewrite is semantics-preserving under the evaluator's semantics
// (temporal sort over Z -- nonempty -- and data sort over the active
// domain): scope shrinking never changes which domain a quantifier ranges
// over.
//
// Pipeline position: EvalQuery runs the static analyzer first
// (analysis/analyzer.h), applies its sound rewrites (dead OR-branch
// elimination, which IS representation-preserving), then hands the result
// here.  The analyzer's polarity tracking mirrors the De Morgan pushes
// above on purpose: elimination only fires where these rewrites keep the
// branch a positive union arm.  A yes/no statement has its root
// quantifier prefix peeled before this pass (query/prepared.h): the
// miniscoping below would otherwise push those quantifiers into the AND
// chain, where no prefix is left to peel.

#ifndef ITDB_QUERY_OPTIMIZE_H_
#define ITDB_QUERY_OPTIMIZE_H_

#include "query/ast.h"

namespace itdb {
namespace query {

/// Returns an equivalent query with negations pushed toward atoms and
/// quantifier scopes minimized.  Idempotent.
QueryPtr Optimize(const QueryPtr& q);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_OPTIMIZE_H_
