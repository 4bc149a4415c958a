// Soundness oracles for the static analyzer (analysis/analyzer.h), driven
// by random queries from query_gen.h.
//
// Five properties, checked per case:
//   * Bit-identity: evaluating with analysis on must give the SAME
//     representation (schema plus tuple sequence) as evaluating with it
//     off -- a matrix against the (analyze=off, cost_plan=off) baseline
//     that also covers cost_plan (certificate-clamped planning must not
//     change the representation either).  When the baseline fails, every variant must
//     fail with the same status code (the analyzer may turn an eval-time
//     type error into an analysis error, but both surface as
//     kInvalidArgument / kNotFound consistently).
//   * Proven-empty => actually empty: every subplan the analyzer marks
//     proven-empty is evaluated standalone (analysis off) and must have an
//     empty extension, and every subplan it marks proven BIT-empty (zero
//     certified rows) must evaluate to zero tuples, before any
//     simplification.  Quantified variables of enclosing scopes become
//     free variables of the subplan; emptiness is preserved either way.
//   * Certificate soundness (the analysis/absint.h contract): the query is
//     evaluated PLAIN (analyze / optimize / cost_plan all off, so the
//     evaluated tree is exactly the analyzed one) and the result must
//     respect the root certificate -- tuple count <= cert rows, every lrp
//     period divides cert lcm, and the feasible hull of every temporal
//     column lies inside the unary bounds of the certified zone.
//   * Closed forms (query/prepared.h's yes/no path): the query closed by
//     EXISTS and by FORALL over its free variables, answered through the
//     peeled yes/no path, must be true exactly when the relation path's
//     result of the same closed query is nonempty -- with the baseline's
//     options and every matrix variant's.  A budget failure of the
//     relation path is a skip; one of the yes/no path alone is a finding,
//     and any other failure must hit both paths with one code.
//   * Optimizer soundness: every check above evaluates with optimize on,
//     so a successful baseline is compared with the plain evaluation
//     (analyze / optimize / cost_plan off): the two must have
//     one schema and be Equivalent (the same point set; Optimize may change
//     the representation).  A budget failure of Equivalent, and any
//     failure of the plain evaluation (a budget, or a vacuous quantifier
//     that only Optimize drops), is a skip.
//
// Cases whose baseline fails with kOverflow / kResourceExhausted are
// budget-skips, mirroring the algebra fuzzer's convention (oracle.h).
// Failing cases are shrunk greedily to the smallest failing subtree before
// reporting, and each failure carries the database text so the repro is
// self-contained (tools/itdb_fuzz.cc writes it to a file).

#ifndef ITDB_FUZZ_QUERY_ORACLE_H_
#define ITDB_FUZZ_QUERY_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/query_gen.h"
#include "query/ast.h"
#include "query/eval.h"
#include "storage/database.h"

namespace itdb {
namespace fuzz {

struct QueryOracleOptions {
  /// Cap on standalone evaluations of set-level proven-empty subplans per
  /// case.  Bit-level proofs are all checked.
  std::int64_t max_empty_checks = 8;
};

struct QueryCaseOutcome {
  bool skipped = false;        // Baseline over budget; nothing checked.
  std::string skip_reason;
  int variants_checked = 0;    // Matrix variants compared to the baseline.
  int empties_checked = 0;     // Proven-empty subplans evaluated standalone.
  int empties_skipped = 0;     // Standalone evaluation failed (e.g. sorts).
  int bit_empties_checked = 0;  // Proven bit-empty subplans evaluated
                                // standalone to zero tuples.
  int certificates_checked = 0;  // Root certificates verified against plain
                                 // evaluation (0 when it failed or the
                                 // certificate was fully unbounded).
  int closed_checked = 0;  // Closed-form yes/no answers compared with the
                           // relation path (per form and variant).
  int optimizer_checked = 0;  // Baselines found Equivalent to the plain
                              // (unoptimized) evaluation.
  /// Unset = the case passed.
  std::optional<std::string> failure;
};

/// Runs all five oracles on one (database, query) pair.
QueryCaseOutcome CheckQueryCase(const Database& db, const query::QueryPtr& q,
                                const QueryOracleOptions& options = {});

/// Greedy structural shrink of a failing case: repeatedly descends into the
/// first direct subtree that still fails CheckQueryCase, so the reported
/// repro is the smallest failing subquery on that path.  Returns `q` itself
/// when no subtree reproduces the failure.
query::QueryPtr ShrinkFailingQuery(const Database& db, query::QueryPtr q,
                                   const QueryOracleOptions& options = {});

struct QueryFuzzConfig {
  std::uint64_t seed = 1;
  int cases = 500;
  int max_failures = 5;
  DatabaseConfig database;
  QueryGenConfig query;
  QueryOracleOptions oracle;
};

struct QueryFuzzFailure {
  std::uint64_t case_seed = 0;
  std::string description;
  std::string query;         // Query::ToString of the failing case.
  std::string shrunk_query;  // Smallest failing subtree (greedy shrink).
  std::string shrunk_description;  // The shrunk case's failure.
  std::string database;      // Database::ToText: the repro is standalone.
};

struct QueryFuzzReport {
  int cases = 0;
  int skipped = 0;
  std::int64_t variants_checked = 0;
  std::int64_t empties_checked = 0;
  std::int64_t empties_skipped = 0;
  std::int64_t bit_empties_checked = 0;
  std::int64_t certificates_checked = 0;
  std::int64_t closed_checked = 0;
  std::int64_t optimizer_checked = 0;
  std::vector<QueryFuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  /// One-line human-readable summary.
  std::string Summary() const;
};

/// The loop: per case, derive a sub-seed (splitmix64, same idiom as
/// fuzzer.cc), generate a database and a query, and run CheckQueryCase.
QueryFuzzReport RunQueryFuzz(const QueryFuzzConfig& config);

}  // namespace fuzz
}  // namespace itdb

#endif  // ITDB_FUZZ_QUERY_ORACLE_H_
