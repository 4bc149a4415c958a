// The fuzzer's correctness oracles.
//
// Three independent checks per generated case (database + expression):
//
//   * differential -- the expression is evaluated through the generalized
//     algebra AND through the finite-materialization baseline (leaves
//     materialized on an outer window); the two must agree on an inner
//     observation window.  Soundness of the window argument: all generated
//     periods/offsets/bounds/shifts are tiny compared to the outer-inner
//     slack, so every projection witness and shift image lives inside the
//     outer window (the same argument the query property tests make).  A
//     mismatch is re-verified on a doubled outer window before being
//     reported, which eliminates window artifacts entirely.
//
//   * determinism -- the engine result must be bit-identical with the
//     normalization memo-cache off and on.
//
//   * metamorphic -- paper-sound rewrites of the expression (mutate.h) must
//     produce equivalent results: equal materializations on the inner
//     window, plus the exact symbolic Equivalent() test (coalesced normal
//     form, Theorem 3.5 emptiness both directions) when the operands are
//     small enough for it to be affordable.

#ifndef ITDB_FUZZ_ORACLE_H_
#define ITDB_FUZZ_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/expr.h"
#include "storage/database.h"

namespace itdb {
namespace fuzz {

struct OracleOptions {
  /// Observation window for differential comparison: [-inner, inner].
  std::int64_t inner_window = 4;
  /// Materialization window for finite-baseline leaves: [-outer, outer].
  std::int64_t outer_window = 28;
  /// Row budget for finite-baseline intermediates; beyond it the
  /// differential check is skipped (counted, never silent).
  std::int64_t max_finite_rows = 200000;
  /// Metamorphic rewrites checked per case (random subset)...
  int max_mutants = 3;
  /// ...unless this asks for every enumerable rewrite (used when shrinking
  /// and replaying, where determinism matters more than speed).
  bool exhaustive_metamorphic = false;
  /// Tuple-count cap on the symbolic Equivalent() check; larger operands
  /// fall back to the materialization comparison only.
  std::int64_t max_equiv_tuples = 60;
  /// Deliberate engine corruption (demo / self-test).
  InjectedBug bug = InjectedBug::kNone;
  /// Budgets for the engine under test.
  AlgebraOptions algebra;
};

struct OracleFailure {
  std::string oracle;  // "differential" | "determinism" | "metamorphic".
  std::string rule;    // Metamorphic identity name, empty otherwise.
  std::string detail;  // Human-readable mismatch description.
  ExprPtr mutant;      // Metamorphic only: the rewritten expression.
};

struct CaseOutcome {
  /// Nothing could be checked (engine budget/overflow on the reference
  /// evaluation).  Never set when any oracle ran.
  bool skipped = false;
  std::string skip_reason;
  /// The differential check was skipped (finite row budget).
  bool diff_skipped = false;
  int metamorphic_checked = 0;
  std::optional<OracleFailure> failure;
};

/// Runs all three oracles.  `mutant_seed` selects the random subset of
/// metamorphic rewrites (ignored under exhaustive_metamorphic).
CaseOutcome CheckCase(const Database& db, const ExprPtr& expr,
                      const OracleOptions& options, std::uint32_t mutant_seed);

}  // namespace fuzz
}  // namespace itdb

#endif  // ITDB_FUZZ_ORACLE_H_
