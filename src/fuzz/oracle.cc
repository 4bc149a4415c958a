#include "fuzz/oracle.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "core/normalize_cache.h"
#include "fuzz/mutate.h"

namespace itdb {
namespace fuzz {

namespace {

/// Budget-class failures degrade a check into a counted skip; anything else
/// is a real answer (or a real bug).
bool IsBudgetError(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kOverflow;
}

std::string DescribeRows(const std::vector<ConcreteRow>& rows,
                         std::size_t max_shown = 4) {
  std::ostringstream os;
  os << rows.size() << " rows";
  if (!rows.empty()) {
    os << " {";
    for (std::size_t i = 0; i < rows.size() && i < max_shown; ++i) {
      if (i > 0) os << ", ";
      os << rows[i].ToString();
    }
    if (rows.size() > max_shown) os << ", ...";
    os << "}";
  }
  return os.str();
}

/// First row present in `a` but not `b` (both sorted), if any.
const ConcreteRow* FirstMissing(const std::vector<ConcreteRow>& a,
                                const std::vector<ConcreteRow>& b) {
  for (const ConcreteRow& row : a) {
    if (!std::binary_search(b.begin(), b.end(), row)) return &row;
  }
  return nullptr;
}

std::string DiffRows(const std::vector<ConcreteRow>& expected,
                     const std::vector<ConcreteRow>& actual) {
  std::ostringstream os;
  os << "expected " << DescribeRows(expected) << "; got "
     << DescribeRows(actual);
  if (const ConcreteRow* m = FirstMissing(expected, actual)) {
    os << "; missing " << m->ToString();
  }
  if (const ConcreteRow* e = FirstMissing(actual, expected)) {
    os << "; extra " << e->ToString();
  }
  return os.str();
}

/// Rows of `fin` whose temporal coordinates all lie in [-w, w], sorted
/// (input is already sorted; filtering preserves order).
std::vector<ConcreteRow> RestrictToWindow(const FiniteRelation& fin,
                                          std::int64_t w) {
  std::vector<ConcreteRow> out;
  for (const ConcreteRow& row : fin.rows()) {
    bool inside = true;
    for (std::int64_t t : row.temporal) {
      if (t < -w || t > w) {
        inside = false;
        break;
      }
    }
    if (inside) out.push_back(row);
  }
  return out;
}

/// Exact representation equality: schema plus tuple sequence.  This is the
/// determinism contract -- bit-identical output, not just equivalence.
bool SameRepresentation(const GeneralizedRelation& a,
                        const GeneralizedRelation& b) {
  return a.schema() == b.schema() && a.tuples() == b.tuples();
}

}  // namespace

CaseOutcome CheckCase(const Database& db, const ExprPtr& expr,
                      const OracleOptions& options,
                      std::uint32_t mutant_seed) {
  CaseOutcome outcome;

  EvalExprOptions eval;
  eval.algebra = options.algebra;
  eval.algebra.normalize_cache = nullptr;
  eval.bug = options.bug;

  // ---- Reference evaluation: no memo-cache. ----
  Result<GeneralizedRelation> ref = EvalExpr(expr, db, eval);
  if (!ref.ok()) {
    if (IsBudgetError(ref.status())) {
      outcome.skipped = true;
      outcome.skip_reason = ref.status().ToString();
      return outcome;
    }
    outcome.failure = {"differential", "",
                       "reference evaluation failed: " + ref.status().ToString(),
                       nullptr};
    return outcome;
  }

  // ---- Determinism: the memo-cache must leave the representation of the
  // reference (cache off) unchanged. ----
  {
    NormalizeCache cache;
    EvalExprOptions alt = eval;
    alt.algebra.normalize_cache = &cache;
    Result<GeneralizedRelation> got = EvalExpr(expr, db, alt);
    if (!got.ok()) {
      outcome.failure = {"determinism", "",
                         "cache=on failed where reference succeeded: " +
                             got.status().ToString(),
                         nullptr};
      return outcome;
    }
    if (!SameRepresentation(*ref, *got)) {
      std::ostringstream os;
      os << "cache=on diverged from reference: " << ref->size() << " vs "
         << got->size() << " tuples";
      outcome.failure = {"determinism", "", os.str(), nullptr};
      return outcome;
    }
  }

  // ---- Differential: engine vs finite baseline on the inner window. ----
  const std::vector<ConcreteRow> engine_rows =
      FiniteRelation::Materialize(*ref, -options.inner_window,
                                  options.inner_window)
          .rows();
  bool diff_checked = false;
  for (std::int64_t outer : {options.outer_window, 2 * options.outer_window}) {
    const bool last = outer != options.outer_window;
    Result<FiniteEval> fin =
        EvalExprFinite(expr, db, -outer, outer, options.max_finite_rows);
    if (!fin.ok()) {
      if (IsBudgetError(fin.status())) break;  // Skip; counted below.
      outcome.failure = {"differential", "",
                         "finite baseline failed: " + fin.status().ToString(),
                         nullptr};
      return outcome;
    }
    // The baseline is only exact inside its validity window; when shifts /
    // projections shrank it below the comparison window, retry with the
    // doubled materialization window (the validity window grows with it)
    // and skip if that is still not enough.
    if (fin->valid_lo > -options.inner_window ||
        fin->valid_hi < options.inner_window) {
      continue;
    }
    diff_checked = true;
    std::vector<ConcreteRow> base_rows =
        RestrictToWindow(fin->rel, options.inner_window);
    if (engine_rows == base_rows) break;
    if (last) {
      // Mismatch persists on the doubled window: not a window artifact.
      outcome.failure = {"differential", "",
                         "engine vs finite baseline on window [-" +
                             std::to_string(options.inner_window) + ", " +
                             std::to_string(options.inner_window) + "]: " +
                             DiffRows(base_rows, engine_rows),
                         nullptr};
      return outcome;
    }
  }
  outcome.diff_skipped = !diff_checked;

  // ---- Metamorphic: paper-sound rewrites must stay equivalent. ----
  Result<std::vector<Rewrite>> rewrites = EnumerateRewrites(expr, db);
  if (!rewrites.ok()) {
    outcome.failure = {"metamorphic", "",
                       "rewrite enumeration failed: " +
                           rewrites.status().ToString(),
                       nullptr};
    return outcome;
  }
  std::vector<std::size_t> order(rewrites->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t take = order.size();
  if (!options.exhaustive_metamorphic &&
      take > static_cast<std::size_t>(options.max_mutants)) {
    std::mt19937 rng(mutant_seed);
    std::shuffle(order.begin(), order.end(), rng);
    take = static_cast<std::size_t>(options.max_mutants);
  }

  for (std::size_t i = 0; i < take; ++i) {
    const Rewrite& rw = (*rewrites)[order[i]];
    Result<GeneralizedRelation> got = EvalExpr(rw.expr, db, eval);
    if (!got.ok()) {
      if (IsBudgetError(got.status())) continue;  // Mutant too expensive.
      outcome.failure = {"metamorphic", rw.rule,
                         "rewrite failed to evaluate: " +
                             got.status().ToString(),
                         rw.expr};
      return outcome;
    }
    ++outcome.metamorphic_checked;

    // Window cross-check (always).
    const std::vector<ConcreteRow> mutant_rows =
        FiniteRelation::Materialize(*got, -options.inner_window,
                                    options.inner_window)
            .rows();
    if (mutant_rows != engine_rows) {
      outcome.failure = {"metamorphic", rw.rule,
                         "rewrite disagrees on window [-" +
                             std::to_string(options.inner_window) + ", " +
                             std::to_string(options.inner_window) + "]: " +
                             DiffRows(engine_rows, mutant_rows),
                         rw.expr};
      return outcome;
    }

    // Exact symbolic check when affordable.  Some operand shapes are not
    // supported by the symbolic subtraction (data attributes under
    // complement); those fall back to the window check silently.
    if (ref->size() <= options.max_equiv_tuples &&
        got->size() <= options.max_equiv_tuples) {
      Result<bool> equiv = Equivalent(*ref, *got, eval.algebra);
      if (!equiv.ok()) continue;
      if (!*equiv) {
        outcome.failure = {"metamorphic", rw.rule,
                           "Equivalent() == false for a sound rewrite",
                           rw.expr};
        return outcome;
      }
    }
  }

  return outcome;
}

}  // namespace fuzz
}  // namespace itdb
