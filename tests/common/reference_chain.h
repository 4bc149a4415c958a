// The per-AND fold that the query evaluator's AND chains are compared
// against: at every AND of a left-deep chain, Join the left result with the
// right child, reorder the joined columns canonically (temporal names
// sorted, then data names sorted) with Project, and sort the tuples
// canonically.  The evaluator (query/eval.cc) instead pulls the chain's
// tuples depth-first through one JoinProbe per AND and reorders and sorts
// once, at the root; both must give the same schema and the same tuple
// sequence.

#ifndef ITDB_TESTS_COMMON_REFERENCE_CHAIN_H_
#define ITDB_TESTS_COMMON_REFERENCE_CHAIN_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/algebra.h"
#include "core/relation.h"
#include "query/ast.h"
#include "util/status.h"

namespace itdb {
namespace testing_util {

/// `rel` with its columns sorted by name per kind.
inline Result<GeneralizedRelation> ReferenceCanonical(
    const GeneralizedRelation& rel, const AlgebraOptions& options) {
  std::vector<std::string> attrs = rel.schema().temporal_names();
  std::sort(attrs.begin(), attrs.end());
  std::vector<std::string> data = rel.schema().data_names();
  std::sort(data.begin(), data.end());
  attrs.insert(attrs.end(), data.begin(), data.end());
  return Project(rel, attrs, options);
}

/// Folds q's left-deep AND chain one AND at a time; `eval_child(const
/// query::QueryPtr&)` returns the relation of the leftmost leaf and of each
/// AND's right child.  A q that is no AND is its own leaf.
template <typename EvalChild>
Result<GeneralizedRelation> ReferenceChain(const query::QueryPtr& q,
                                           const EvalChild& eval_child,
                                           const AlgebraOptions& options) {
  if (q->kind() != query::Query::Kind::kAnd) return eval_child(q);
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation left,
                        ReferenceChain(q->left(), eval_child, options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation right, eval_child(q->right()));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation joined,
                        Join(left, right, options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation canon,
                        ReferenceCanonical(joined, options));
  canon.SortTuplesCanonical();
  return canon;
}

}  // namespace testing_util
}  // namespace itdb

#endif  // ITDB_TESTS_COMMON_REFERENCE_CHAIN_H_
