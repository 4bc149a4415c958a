// Analyzer-driven sound rewrites (dead-branch elimination).
//
// The only rewrite applied is the one with a bit-identical justification:
// in OR(a, b) where b is proven BIT-empty (evaluation yields zero tuples,
// not merely the empty set -- see analyzer.h) and free(b) is a subset of
// free(a), the evaluator would compute Union(Eval(a), ExtendTo(Eval(b),
// schema)) -- and appending ZERO tuples to a relation returns the exact
// same representation, so OR(a, b) can be replaced by a outright
// (symmetrically for an empty a).  The free-variable condition matters:
// if b contributed a column that a lacks, dropping b would change the
// result SCHEMA even though b has no tuples.  Nor may b mention a variable
// of an enclosing quantifier: the optimizer miniscopes a quantifier through
// an OR only when one side lacks its variable, so dropping b before
// optimizing could let the quantifier sink into a and change the evaluated
// plan (the optimizer runs after this rewrite).  Set-level proofs (a
// DBM-refuted selection chain) are NOT enough: evaluating such a branch
// can yield infeasible-but-present tuples, and dropping them would be
// visible in the union's representation.
//
// Proven-empty nodes that are not OR branches are left alone -- replacing
// e.g. an AND with a literal "empty" node could skip evaluation work but
// would need a canonical-empty constructor in the AST; the evaluator's
// root short-circuit (query/prepared.h) covers the root case instead.

#ifndef ITDB_ANALYSIS_REWRITE_H_
#define ITDB_ANALYSIS_REWRITE_H_

#include <set>

#include "query/ast.h"

namespace itdb {
namespace analysis {

/// Drops provably-dead OR branches of `q` (per `empty`, which must point
/// into `q`'s tree).  Returns `q` itself when nothing applies; shares
/// untouched subtrees otherwise.  `removed` counts dropped branches.
query::QueryPtr EliminateDeadBranches(const query::QueryPtr& q,
                                      const std::set<const query::Query*>& empty,
                                      int* removed);

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_REWRITE_H_
