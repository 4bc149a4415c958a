#include "fuzz/query_oracle.h"

#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "analysis/analyzer.h"
#include "core/dbm.h"
#include "core/simplify.h"
#include "fuzz/generator.h"
#include "fuzz/query_gen.h"
#include "query/eval.h"

namespace itdb {
namespace fuzz {

namespace {

using query::Query;
using query::QueryOptions;
using query::QueryPtr;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Exact representation equality, the bit-identity contract (same idiom as
/// the algebra oracle).
bool SameRepresentation(const GeneralizedRelation& a,
                        const GeneralizedRelation& b) {
  return a.schema() == b.schema() && a.tuples() == b.tuples();
}

bool IsBudgetFailure(const Status& s) {
  return s.code() == StatusCode::kOverflow ||
         s.code() == StatusCode::kResourceExhausted;
}

struct Variant {
  const char* name;
  bool analyze;
  bool cost_plan;
};

constexpr Variant kVariants[] = {
    {"analyze=on cost_plan=off", true, false},
    {"analyze=off cost_plan=on", false, true},
    {"analyze=on cost_plan=on", true, true},
};

constexpr Variant kBaseline = {"analyze=off cost_plan=off", false, false};

QueryOptions MakeOptions(bool analyze, bool cost_plan) {
  QueryOptions options;
  options.analyze = analyze;
  options.cost_plan = cost_plan;
  return options;
}

/// Oracle 4: `q` closed by EXISTS and by FORALL over its free variables,
/// answered through the peeled yes/no path, must say "true" exactly when
/// the relation path's result is nonempty -- on the baseline and on every
/// matrix variant.  A budget failure of the relation path is a skip; one
/// of the yes/no path alone is a failure, as a cross product of
/// independent conjuncts would be.  Any other failure must hit both paths
/// with the same status code.
std::optional<std::string> CheckClosedForms(const Database& db,
                                            const QueryPtr& q,
                                            QueryCaseOutcome* outcome) {
  const std::vector<std::string> free = q->FreeVariables();
  std::vector<Variant> variants = {kBaseline};
  variants.insert(variants.end(), std::begin(kVariants), std::end(kVariants));
  for (bool universal : {false, true}) {
    QueryPtr closed = q;
    for (auto v = free.rbegin(); v != free.rend(); ++v) {
      closed =
          universal ? Query::Forall(*v, closed) : Query::Exists(*v, closed);
    }
    const char* form = universal ? "FORALL-closed" : "EXISTS-closed";
    for (const Variant& v : variants) {
      const QueryOptions opts = MakeOptions(v.analyze, v.cost_plan);
      Result<GeneralizedRelation> rel = EvalQuery(db, closed, opts);
      Result<bool> answer = EvalBooleanQuery(db, closed, opts);
      if (!rel.ok() || !answer.ok()) {
        if (!rel.ok() && IsBudgetFailure(rel.status())) continue;
        if (rel.ok() != answer.ok() ||
            rel.status().code() != answer.status().code()) {
          std::ostringstream os;
          os << v.name << ": " << form << ": relation path "
             << (rel.ok() ? "succeeded" : rel.status().ToString())
             << " but yes/no path "
             << (answer.ok() ? "succeeded" : answer.status().ToString());
          return os.str();
        }
        continue;
      }
      Result<bool> empty = IsEmpty(*rel, opts.algebra);
      if (!empty.ok()) continue;
      ++outcome->closed_checked;
      if (*answer == *empty) {
        std::ostringstream os;
        os << v.name << ": " << form << ": yes/no path answers "
           << (*answer ? "true" : "false") << " but the relation path is "
           << (*empty ? "empty" : "nonempty");
        return os.str();
      }
    }
  }
  return std::nullopt;
}

/// Oracle 5: Optimize preserves the point set.  Every other oracle
/// evaluates with optimize on, so the successful baseline is compared with
/// `plain`, the same query evaluated with analyze, optimize and cost_plan
/// off.  A budget failure of Equivalent is a skip, and so is
/// any failure of `plain`: a budget, or a vacuous quantifier that sort
/// inference rejects and Optimize drops.
std::optional<std::string> CheckOptimizer(
    const GeneralizedRelation& baseline,
    const Result<GeneralizedRelation>& plain, const AlgebraOptions& algebra,
    QueryCaseOutcome* outcome) {
  if (!plain.ok()) return std::nullopt;
  if (!(baseline.schema() == plain->schema())) {
    return "optimizer changed the schema: " + baseline.schema().ToString() +
           " vs plain " + plain->schema().ToString();
  }
  Result<bool> same = Equivalent(baseline, *plain, algebra);
  if (!same.ok()) {
    if (IsBudgetFailure(same.status())) return std::nullopt;
    return "optimizer check failed: " + same.status().ToString();
  }
  ++outcome->optimizer_checked;
  if (*same) return std::nullopt;
  std::ostringstream os;
  os << "optimized and plain evaluations differ: " << baseline.size()
     << " vs " << plain->size() << " tuples, not the same point set";
  return os.str();
}

/// Pre-order walk collecting the subplans the analyzer proved empty, in a
/// deterministic order (the pointer set itself iterates by address).
void CollectProvenEmpty(const QueryPtr& q,
                        const std::set<const Query*>& proven,
                        std::vector<QueryPtr>* out) {
  if (proven.count(q.get()) > 0) out->push_back(q);
  switch (q->kind()) {
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectProvenEmpty(q->left(), proven, out);
      CollectProvenEmpty(q->right(), proven, out);
      break;
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      CollectProvenEmpty(q->left(), proven, out);
      break;
    default:
      break;
  }
}

}  // namespace

QueryCaseOutcome CheckQueryCase(const Database& db, const QueryPtr& q,
                                const QueryOracleOptions& options) {
  QueryCaseOutcome outcome;

  // --- Oracle 1: the analyze/cost_plan matrix vs the baseline. ---
  Result<GeneralizedRelation> baseline =
      EvalQuery(db, q, MakeOptions(/*analyze=*/false, /*cost_plan=*/false));
  if (!baseline.ok() && IsBudgetFailure(baseline.status())) {
    outcome.skipped = true;
    outcome.skip_reason = "baseline over budget: " +
                          baseline.status().ToString();
    return outcome;
  }
  for (const Variant& v : kVariants) {
    Result<GeneralizedRelation> got =
        EvalQuery(db, q, MakeOptions(v.analyze, v.cost_plan));
    ++outcome.variants_checked;
    // Planned and written join orders can exhaust resource budgets
    // differently (the documented exception in query/planner.h): a budget
    // failure on either side of a cost_plan-differing comparison is a skip,
    // the same convention as a baseline over budget.
    if (v.cost_plan && baseline.ok() != got.ok() &&
        IsBudgetFailure((baseline.ok() ? got : baseline).status())) {
      --outcome.variants_checked;
      continue;
    }
    if (baseline.ok() != got.ok()) {
      std::ostringstream os;
      os << v.name << ": baseline "
         << (baseline.ok() ? "succeeded" : "failed") << " but variant "
         << (got.ok() ? "succeeded: did analysis change the result?"
                      : "failed: " + got.status().ToString());
      outcome.failure = os.str();
      return outcome;
    }
    if (!baseline.ok()) {
      if (v.cost_plan &&
          baseline.status().code() != got.status().code() &&
          IsBudgetFailure(got.status())) {
        --outcome.variants_checked;
        continue;  // Same budget-divergence skip as above.
      }
      if (baseline.status().code() != got.status().code()) {
        std::ostringstream os;
        os << v.name << ": status code diverged: baseline "
           << baseline.status().ToString() << " vs "
           << got.status().ToString();
        outcome.failure = os.str();
        return outcome;
      }
      continue;
    }
    if (!SameRepresentation(*baseline, *got)) {
      std::ostringstream os;
      os << v.name << ": representation diverged from baseline: "
         << baseline->size() << " vs " << got->size() << " tuples";
      outcome.failure = os.str();
      return outcome;
    }
  }

  // The query evaluated plain: exactly the analyzed tree, unoptimized.
  QueryOptions plain = MakeOptions(/*analyze=*/false, /*cost_plan=*/false);
  plain.optimize = false;
  const Result<GeneralizedRelation> plain_result = EvalQuery(db, q, plain);

  // --- Oracles 4 and 5 (ahead of the analysis-dependent oracles): closed
  // forms answer through the peeled yes/no path as the relation path does,
  // and the optimized baseline has the plain evaluation's point set. ---
  if (baseline.ok()) {
    outcome.failure = CheckClosedForms(db, q, &outcome);
    if (outcome.failure.has_value()) return outcome;
    outcome.failure =
        CheckOptimizer(*baseline, plain_result, plain.algebra, &outcome);
    if (outcome.failure.has_value()) return outcome;
  }

  // --- Oracle 2: proven-empty subplans must evaluate to empty, and
  // bit-empty ones (zero certified rows) to zero tuples. ---
  analysis::AnalysisResult analyzed = analysis::Analyze(db, q);
  if (analyzed.HasErrors()) return outcome;
  std::vector<QueryPtr> empties;
  CollectProvenEmpty(q, analyzed.proven_empty, &empties);
  for (const QueryPtr& node : empties) {
    // Every bit-level proof is checked; set-level ones up to the cap.
    const bool bit = analyzed.proven_bit_empty.contains(node.get());
    const bool capped = outcome.empties_checked + outcome.empties_skipped >=
                        options.max_empty_checks;
    if (capped && !bit) continue;
    // Standalone evaluation: enclosing quantified variables become free.
    // Sort inference can legitimately fail out of context; that is a skip,
    // not a finding.
    Result<GeneralizedRelation> sub = EvalQuery(
        db, node,
        MakeOptions(/*analyze=*/false, /*cost_plan=*/false));
    if (!sub.ok()) {
      if (!capped) ++outcome.empties_skipped;
      continue;
    }
    if (bit) {
      ++outcome.bit_empties_checked;
      if (!sub->tuples().empty()) {
        std::ostringstream os;
        os << "proven bit-empty subplan has tuples: " << node->ToString()
           << " evaluates to " << sub->size() << " tuple(s)";
        outcome.failure = os.str();
        return outcome;
      }
    }
    if (capped) continue;
    // Exact emptiness: normalize away tuples with empty extensions first.
    Result<GeneralizedRelation> simplified = Simplify(*sub);
    if (!simplified.ok()) {
      ++outcome.empties_skipped;
      continue;
    }
    ++outcome.empties_checked;
    if (!simplified->tuples().empty()) {
      std::ostringstream os;
      os << "proven-empty subplan is nonempty: " << node->ToString()
         << " has " << simplified->size() << " tuple(s)";
      outcome.failure = os.str();
      return outcome;
    }
  }

  // --- Oracle 3: the root certificate bounds the plain evaluation. ---
  // The certificate was computed for the analyzed tree, so the check
  // reads the evaluation of exactly that tree.
  const analysis::Certificate& cert = analyzed.root_certificate;
  const analysis::Zone& zone = cert.zone;
  const bool has_zone = !zone.vars.empty() || zone.refuted();
  if (cert.rows.has_value() || cert.lcm.has_value() || has_zone) {
    const Result<GeneralizedRelation>& got = plain_result;
    if (got.ok()) {
      ++outcome.certificates_checked;
      if (cert.rows.has_value() &&
          static_cast<std::int64_t>(got->size()) > *cert.rows) {
        std::ostringstream os;
        os << "cardinality certificate violated: result has " << got->size()
           << " tuple(s), certified <= " << *cert.rows;
        outcome.failure = os.str();
        return outcome;
      }
      if (cert.lcm.has_value()) {
        for (const GeneralizedTuple& t : got->tuples()) {
          for (const Lrp& lrp : t.temporal()) {
            if (lrp.period() > 0 && *cert.lcm % lrp.period() != 0) {
              std::ostringstream os;
              os << "period certificate violated: lrp period "
                 << lrp.period() << " does not divide certified lcm "
                 << *cert.lcm;
              outcome.failure = os.str();
              return outcome;
            }
          }
        }
      }
      if (has_zone) {
        // The feasible per-column hull of the result must lie inside the
        // zone's unary bounds (a refuted zone means the result must have
        // no feasible tuples at all).  Per tuple, the hull comes from its
        // constraints closed together with its singleton lrps as
        // equalities: X0 <= X1 with X1 = [2] bounds X0 by 2 only after
        // closure.  Infeasible tuples denote {} and contribute nothing.
        const std::vector<std::string>& names =
            got->schema().temporal_names();
        const int m = static_cast<int>(names.size());
        std::vector<std::int64_t> lo(names.size(), Dbm::kInf);
        std::vector<std::int64_t> hi(names.size(), -Dbm::kInf);
        bool any_feasible = false;
        for (const GeneralizedTuple& t : got->tuples()) {
          Dbm c = t.constraints();
          for (int i = 0; i < m; ++i) {
            const Lrp& lrp = t.lrp(i);
            if (lrp.period() == 0 && lrp.offset() >= -Dbm::kBoundLimit &&
                lrp.offset() <= Dbm::kBoundLimit) {
              c.AddEquality(i, lrp.offset());
            }
          }
          const bool closed = c.Close().ok();  // Overflow: unbounded.
          if (closed && !c.feasible()) continue;
          any_feasible = true;
          for (int i = 0; i < m; ++i) {
            const std::size_t col = static_cast<std::size_t>(i);
            const std::int64_t upper = closed ? c.bound_node(i + 1, 0)
                                              : Dbm::kInf;
            const std::int64_t lower = closed ? c.bound_node(0, i + 1)
                                              : Dbm::kInf;
            lo[col] = std::min(lo[col],
                               lower == Dbm::kInf ? -Dbm::kInf : -lower);
            hi[col] = std::max(hi[col], upper);
          }
        }
        if (any_feasible) {
          for (std::size_t i = 0; i < names.size(); ++i) {
            const std::int64_t zlo = zone.Lower(names[i]);
            const std::int64_t zhi = zone.Upper(names[i]);
            if (lo[i] < zlo || hi[i] > zhi) {
              std::ostringstream os;
              os << "zone certificate violated: column \"" << names[i]
                 << "\" spans [" << lo[i] << ", " << hi[i]
                 << "], certified " << (zone.refuted() ? "empty" : "")
                 << "[" << zlo << ", " << zhi << "]";
              outcome.failure = os.str();
              return outcome;
            }
          }
        }
      }
    }
  }
  return outcome;
}

QueryPtr ShrinkFailingQuery(const Database& db, QueryPtr q,
                            const QueryOracleOptions& options) {
  // Bounded descent: each round tries the direct subtrees in order and
  // recurses into the first that still fails.  The bound only guards
  // against pathological depth; real queries shrink in a handful of steps.
  for (int round = 0; round < 64; ++round) {
    std::vector<QueryPtr> children;
    switch (q->kind()) {
      case Query::Kind::kAnd:
      case Query::Kind::kOr:
        children = {q->left(), q->right()};
        break;
      case Query::Kind::kNot:
      case Query::Kind::kExists:
        children = {q->left()};
        break;
      default:
        return q;
    }
    QueryPtr next;
    for (const QueryPtr& child : children) {
      if (CheckQueryCase(db, child, options).failure.has_value()) {
        next = child;
        break;
      }
    }
    if (next == nullptr) return q;
    q = std::move(next);
  }
  return q;
}

std::string QueryFuzzReport::Summary() const {
  std::ostringstream os;
  os << "query fuzz: " << cases << " case(s), " << skipped << " skipped, "
     << variants_checked << " variant check(s), " << empties_checked
     << " emptiness check(s) (" << empties_skipped << " skipped), "
     << bit_empties_checked << " bit-level emptiness check(s), "
     << certificates_checked << " certificate check(s), " << closed_checked
     << " closed-form check(s), " << optimizer_checked
     << " optimizer check(s), " << failures.size() << " failure(s)";
  return os.str();
}

QueryFuzzReport RunQueryFuzz(const QueryFuzzConfig& config) {
  QueryFuzzReport report;
  const std::uint64_t stream = SplitMix64(config.seed);
  for (int i = 0; i < config.cases; ++i) {
    const std::uint64_t case_seed =
        SplitMix64(stream + static_cast<std::uint64_t>(i));
    const auto db_seed = static_cast<std::uint32_t>(case_seed);
    const auto query_seed = static_cast<std::uint32_t>(case_seed >> 32);
    Database db = MakeRandomDatabase(db_seed, config.database);
    QueryPtr q = MakeRandomQuery(query_seed, db, config.query);
    QueryCaseOutcome outcome = CheckQueryCase(db, q, config.oracle);
    ++report.cases;
    if (outcome.skipped) ++report.skipped;
    report.variants_checked += outcome.variants_checked;
    report.empties_checked += outcome.empties_checked;
    report.empties_skipped += outcome.empties_skipped;
    report.bit_empties_checked += outcome.bit_empties_checked;
    report.certificates_checked += outcome.certificates_checked;
    report.closed_checked += outcome.closed_checked;
    report.optimizer_checked += outcome.optimizer_checked;
    if (outcome.failure.has_value()) {
      QueryFuzzFailure f;
      f.case_seed = case_seed;
      f.description = *outcome.failure;
      f.query = q->ToString();
      QueryPtr shrunk = ShrinkFailingQuery(db, q, config.oracle);
      f.shrunk_query = shrunk->ToString();
      QueryCaseOutcome small = CheckQueryCase(db, shrunk, config.oracle);
      f.shrunk_description =
          small.failure.has_value() ? *small.failure : *outcome.failure;
      f.database = db.ToText();
      report.failures.push_back(std::move(f));
      if (static_cast<int>(report.failures.size()) >= config.max_failures) {
        break;
      }
    }
  }
  return report;
}

}  // namespace fuzz
}  // namespace itdb
