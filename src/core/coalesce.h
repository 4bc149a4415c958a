// Residue coalescing: the inverse of Lemma 3.1.
//
// Operations that normalize (complement above all: Appendix A.6 enumerates
// a full k^m residue universe) return relations with many tuples that
// differ only in one column's residue.  When the offsets of such a family
// cover every residue of a coarser period, the family collapses back into
// a single tuple -- Lemma 3.1 read right-to-left:
//
//   { c + k'n, k + c + k'n, ..., (c'-1)k + c + k'n }  ==  { c + kn }.
//
// Coalescing never changes the represented set (the ablation benchmark and
// the property tests check equivalence) and can shrink complement outputs
// by orders of magnitude.

#ifndef ITDB_CORE_COALESCE_H_
#define ITDB_CORE_COALESCE_H_

#include "core/relation.h"
#include "util/status.h"

namespace itdb {

/// Merges residue-class families column by column until a fixpoint.
/// Exact: the result represents the same set with at most as many tuples.
Result<GeneralizedRelation> CoalesceResidues(const GeneralizedRelation& r);

}  // namespace itdb

#endif  // ITDB_CORE_COALESCE_H_
