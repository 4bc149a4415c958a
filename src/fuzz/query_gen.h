// Random first-order queries over a generated database (query_oracle.h's
// input side).
//
// Queries are sort-disciplined by construction: atoms draw variables from
// per-sort pools, comparisons only mention variables an atom already
// binds (or constants), and quantifier names never shadow.  On top of the
// well-formed core the generator deliberately injects, at low rates,
//   * contradictions (t > c AND t < c, ground-false comparisons) so the
//     analysis has emptiness to prove, and
//   * ill-formed constructs (unknown relations, arity mismatches, sort
//     conflicts, string-vs-int comparisons) so the oracle can pin that
//     analysis-on and analysis-off agree on FAILING too.
// OR nodes get a structurally fresh clone of the other branch plus a
// contradiction, so dead-branch elimination actually fires (the free-var
// subset condition holds by construction).

#ifndef ITDB_FUZZ_QUERY_GEN_H_
#define ITDB_FUZZ_QUERY_GEN_H_

#include <cstdint>

#include "query/ast.h"
#include "storage/database.h"

namespace itdb {
namespace fuzz {

struct QueryGenConfig {
  int max_atoms = 3;
  int max_cmps = 2;
  int max_quantifiers = 2;
  /// Chance (percent) of conjoining a temporal contradiction.
  int contradiction_percent = 30;
  /// Chance (percent) of wrapping the core in OR with a dead clone branch.
  int dead_branch_percent = 35;
  /// Chance (percent) of one deliberate ill-formed construct.
  int illformed_percent = 10;
  std::int64_t const_range = 5;   // Comparison constants in [-range, range].
  std::int64_t offset_range = 2;  // Successor offsets in [-range, range].
};

/// Deterministic: same (seed, db, cfg) => same query.  `db` is typically a
/// MakeRandomDatabase catalog but any database works.
query::QueryPtr MakeRandomQuery(std::uint32_t seed, const Database& db,
                                const QueryGenConfig& cfg);

}  // namespace fuzz
}  // namespace itdb

#endif  // ITDB_FUZZ_QUERY_GEN_H_
