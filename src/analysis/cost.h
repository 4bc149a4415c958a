// Complexity and cost warnings (analysis pass 4).
//
//   A010  complement (NOT / FORALL) whose operand has >= N free temporal
//         variables: complement of a multi-column generalized relation is
//         the NP-complete regime of Theorem 3.5 (nonemptiness of
//         complements), and its normal form can be exponentially larger;
//   A011  conjunction whose operands share no attributes at all: the join
//         degenerates to a cross product (|L| * |R| tuples).  Not for the
//         top AND chain of a yes/no statement, whose variable-disjoint
//         conjuncts are tested for emptiness one part at a time;
//   A012  the periods of the relations reachable from the root compose, in
//         the worst case, to their lcm (Lemma 3.1 splits tuples to the
//         common period), so a large lcm predicts normalization blowup.
//         The lcm is the root certificate's (absint.h): the stored periods'
//         lcm, composed through the tree, with no pass over the tuples.
//
// All findings are warnings: they never block evaluation, only explain
// where time will go (the evaluator's budget checks still backstop
// runaway cases at run time).  The thresholds are the constants below;
// the certificate pass (A014/A015) and admission grading read the same
// ones.

#ifndef ITDB_ANALYSIS_COST_H_
#define ITDB_ANALYSIS_COST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "query/ast.h"
#include "query/sorts.h"
#include "util/diagnostic.h"

namespace itdb {
namespace analysis {

/// A012 fires when the lcm of the periods reachable from the root exceeds
/// this.  A015 is its certified counterpart: it fires when the CERTIFIED
/// root lcm exceeds the same threshold.
inline constexpr std::int64_t kPeriodBlowupThreshold = 720;
/// A010 fires for complements (NOT / FORALL) whose operand has at least
/// this many free temporal variables.
inline constexpr int kComplementWidthThreshold = 2;
/// A014 fires when the certified root cardinality exceeds this.
inline constexpr std::int64_t kCertifiedRowsThreshold = 1'000'000;

/// Appends A010/A011/A012 warnings for `q` to `out`.  `sorts` must be the
/// error-free result of sort inference for `q`; `root_lcm` is `q`'s root
/// certificate lcm (nullopt: beyond analysis::kMaxCertifiedLcm).  The AND
/// chain rooted at `parts`, if any, gets no A011.
void CostDiagnostics(const query::Query& q, const query::SortMap& sorts,
                     std::optional<std::int64_t> root_lcm,
                     const query::Query* parts,
                     std::vector<Diagnostic>* out);

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_COST_H_
