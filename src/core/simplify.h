// Redundancy elimination for generalized relations.
//
// The paper notes (Section 3.1) that "in practice, one would also attempt to
// eliminate the redundancies that might appear between the tuples of the
// merged relation.  We do not consider this problem."  This module is that
// missing pass: it drops tuples with empty extensions and tuples subsumed by
// other tuples.  No algebra operator or query node runs it implicitly;
// callers that want it (the `simplify` verb, the query fuzz oracle, the
// ablation benchmark bench/bench_ablation_simplify) call Simplify directly.

#ifndef ITDB_CORE_SIMPLIFY_H_
#define ITDB_CORE_SIMPLIFY_H_

#include "core/relation.h"
#include "util/status.h"

namespace itdb {

/// Sufficient (sound, not complete) subsumption test: returns true only when
/// every concrete row of `small` is provably a row of `big` -- data values
/// equal, every lrp of `small` included in the corresponding lrp of `big`,
/// and small's (closed) constraints implying big's.
Result<bool> TupleSubsumes(const GeneralizedTuple& big,
                           const GeneralizedTuple& small);

/// Removes tuples whose extension is empty (exact, via TupleIsEmpty) and
/// tuples subsumed by another remaining tuple.
Result<GeneralizedRelation> Simplify(const GeneralizedRelation& r);

}  // namespace itdb

#endif  // ITDB_CORE_SIMPLIFY_H_
