// Cost-based physical planning: reorder AND-chains before evaluation.
//
// The evaluator runs each left-deep AND-chain as one depth-first pull, one
// JoinProbe per AND, in the order the tree lists its conjuncts, but
// conjunction cost is wildly order-sensitive: joining the two large
// relations of a three-way chain first can probe O(|A| * |B|) pairs that
// the selective third conjunct would have kept few, and a chain whose
// adjacent conjuncts share no variables degenerates to a cross product
// (the A011 analysis warning) even when a different order joins on shared
// attributes throughout.  PlanQuery walks
// the tree bottom-up, flattens every maximal AND-chain, estimates each
// conjunct's cardinality from per-relation statistics (core/stats.h), and
// rebuilds the chain greedy left-deep: cheapest connected pair first, each
// following step the connected conjunct that minimizes the estimated
// intermediate, selections and comparisons as soon as their variables are
// bound, cross products and wide complements (the A010 NP-regime signal:
// estimated rows exponential in free temporal width) last.
//
// Bit-identity: planning changes only the association/order of joins inside
// AND-chains.  Joined tuples carry the CLOSED conjunction of their
// operands' constraint systems, and min-plus closure is idempotent over
// entrywise min, so the per-tuple representation of a multi-way conjunction
// is join-order-invariant; only the tuple SEQUENCE differs.  The evaluator
// therefore sorts the tuples past every chain root canonically, once
// (SortTuplesCanonical), making planned and written-order evaluation
// bit-identical -- pinned by the cost_plan axis of the fuzz determinism
// matrix.  The one observable
// divergence is resource exhaustion: a budget that the written order blows
// and the planned order does not (or vice versa) surfaces as different
// kOverflow / kResourceExhausted outcomes; the fuzz oracle treats that as a
// budget-skip, the same convention as every other budget divergence.
//
// Estimates are heuristics feeding ORDERING ONLY; they never gate or alter
// an operation.  Complement placement is likewise ordering-only: narrowing
// a complement's operand would change the representation, so scope
// minimization stays the job of query/optimize.h miniscoping.

#ifndef ITDB_QUERY_PLANNER_H_
#define ITDB_QUERY_PLANNER_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "core/stats.h"
#include "query/ast.h"
#include "query/sorts.h"
#include "storage/database.h"

namespace itdb {
namespace query {

/// A plan node's estimate: output cardinality (generalized tuples) and
/// cumulative subtree work, both heuristic.
struct PlanEstimate {
  double rows = 1.0;
  double cost = 0.0;
};

/// Estimates keyed by node address.  Valid only for the exact tree (shared
/// subtree pointers included) they were computed for.
using PlanEstimateMap = std::map<const Query*, PlanEstimate>;

struct PlannedQuery {
  QueryPtr query;
  /// Estimates for every node of `query` (the planned tree).
  PlanEstimateMap estimates;
};

/// Plans `q` against `db`: AND-chains reordered as documented above, every
/// other node preserved.  `sorts` must be the successful sort inference for
/// `q` (variable sets are unchanged by planning, so it stays valid for the
/// result).  `stats_cache`, when non-null, memoizes per-relation statistics
/// keyed on db.version(); null recomputes them per call.  Never fails:
/// relations that cannot be read estimate as empty.
///
/// `absint`, when non-null, must have interpreted `q`'s tree
/// (analysis/absint.h); the planner then CLAMPS its heuristic row
/// estimates to the certified bounds -- a certified cardinality caps the
/// estimate, and a proven-empty conjunct (Certificate::ProvenEmpty)
/// estimates as zero rows, pulling it to the front of the chain.  The
/// planner registers certificates for every AND node it rebuilds, so the
/// planned tree is fully annotated for explain/profile.  Clamping changes
/// join ORDER only; bit-identity is untouched (the cost_plan axis of the
/// fuzz matrix runs with clamping on).
PlannedQuery PlanQuery(const Database& db, const QueryPtr& q,
                       const SortMap& sorts, StatsCache* stats_cache,
                       analysis::AbstractInterpreter* absint = nullptr);

/// Appends the conjuncts of the maximal AND chain at `q`'s root to `out`,
/// left to right (`q` itself when it is no AND).
void FlattenConjuncts(const QueryPtr& q, std::vector<QueryPtr>* out);

/// The groups of `conjuncts` connected by shared free variables (the
/// components of their variable-sharing graph): entry i is the index of
/// the first conjunct in conjunct i's group.  A ground conjunct is a group
/// of its own.
std::vector<std::size_t> GroupConjuncts(const std::vector<QueryPtr>& conjuncts);

/// The plan tree EXPLAIN prints, one PlanNodeLabel (eval.h) per line,
/// with per-node estimates appended:
///   AND  (est_rows=12, est_cost=340)
/// Nodes absent from `estimates` print without a suffix.  With
/// `certificates`, certified bounds are appended to the annotation:
///   AND  (est_rows=12, est_cost=340, cert_rows=40, cert_lcm=6)
std::string FormatQueryPlanWithEstimates(
    const QueryPtr& q, const PlanEstimateMap& estimates,
    const analysis::CertificateMap* certificates = nullptr);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_PLANNER_H_
