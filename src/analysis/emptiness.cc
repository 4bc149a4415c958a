#include "analysis/emptiness.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cmp.h"
#include "core/dbm.h"
#include "query/planner.h"

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::QueryPtr;
using query::Sort;
using query::SortMap;
using query::Term;

bool IsTemporalVar(const Term& t, const SortMap& sorts) {
  if (t.kind != Term::Kind::kVariable) return false;
  auto it = sorts.find(t.var);
  return it != sorts.end() && it->second == Sort::kTime;
}

/// Truth value of a comparison with no degrees of freedom, or nullopt.
/// Same-variable comparisons are only ground over the temporal sort
/// ((t + a) op (t + b) reduces to a op b); the evaluator rejects a data
/// variable compared with itself, so claiming a truth value there would
/// let the rewriter hide an evaluation error.
std::optional<bool> GroundCmpTruth(const Query& q, const SortMap& sorts) {
  const Term& l = q.lhs();
  const Term& r = q.rhs();
  if (l.kind == Term::Kind::kVariable && r.kind == Term::Kind::kVariable) {
    if (l.var == r.var && IsTemporalVar(l, sorts)) {
      return Holds(l.number, q.cmp(), r.number);
    }
    return std::nullopt;
  }
  if (l.kind == Term::Kind::kInt && r.kind == Term::Kind::kInt) {
    return Holds(l.number, q.cmp(), r.number);
  }
  if (l.kind == Term::Kind::kString && r.kind == Term::Kind::kString &&
      (q.cmp() == CmpOp::kEq || q.cmp() == CmpOp::kNe)) {
    return Holds(l.text, q.cmp(), r.text);
  }
  return std::nullopt;
}

/// Per-node proof strength (see EmptinessProof in the header).
struct Proof {
  bool empty = false;
  bool bit = false;
};

struct EmptinessProver {
  const Database& db;
  const SortMap& sorts;
  EmptinessProof out;

  Proof Mark(const Query& q, Proof p) {
    if (p.empty) out.empty.insert(&q);
    if (p.bit) out.bit_empty.insert(&q);
    return p;
  }

  /// Difference constraints implied by the purely constant temporal
  /// comparisons among `conjuncts`; infeasibility of their closure proves
  /// the conjunction empty.  Comparisons that do not fit the difference
  /// form (data sort, !=, overflow) are simply skipped -- dropping a
  /// constraint can only make the system MORE feasible, so skipping is
  /// sound.
  bool ConjunctionInfeasible(const std::vector<QueryPtr>& conjuncts) {
    std::map<std::string, int> index;
    // A term in difference form: a temporal variable or an integer.
    auto operand = [&](const Term& t) -> std::optional<CmpOperand> {
      if (IsTemporalVar(t, sorts)) {
        int col = index.emplace(t.var, static_cast<int>(index.size()))
                      .first->second;
        return CmpOperand{col, t.number};
      }
      if (t.kind == Term::Kind::kInt) return CmpOperand{kZeroVar, t.number};
      return std::nullopt;
    };
    std::vector<AtomicConstraint> constraints;
    for (const QueryPtr& c : conjuncts) {
      if (c->kind() != Query::Kind::kCmp) continue;
      std::optional<CmpOperand> l = operand(c->lhs());
      std::optional<CmpOperand> r = operand(c->rhs());
      if (!l.has_value() || !r.has_value() || l->col == r->col) continue;
      Result<TemporalCondition> cond = OrientCmp(*l, c->cmp(), *r);
      if (!cond.ok()) continue;
      Result<CmpBranches> branches = CompileCmp(*cond);
      // != is a disjunction: only single-branch conditions conjoin.
      if (!branches.ok() || branches->size() != 1) continue;
      const std::vector<AtomicConstraint>& atoms = branches->front();
      constraints.insert(constraints.end(), atoms.begin(), atoms.end());
    }
    if (constraints.empty()) return false;
    Dbm dbm(static_cast<int>(index.size()));
    if (!dbm.Close().ok()) return false;
    for (const AtomicConstraint& c : constraints) {
      switch (dbm.TightenAndClose(c)) {
        case Dbm::TightenResult::kInfeasible:
          return true;
        case Dbm::TightenResult::kFallbackNeeded:
          // Skipping the constraint keeps the check sound (see above).
          break;
        case Dbm::TightenResult::kClosed:
          break;
      }
    }
    return false;
  }

  /// Recurses over the whole tree (so nodes inside negations still get
  /// marked for diagnostics) and returns the proof strength of `q`.
  /// Bit-level emptiness descends only from leaves the evaluator renders
  /// with zero tuples: an empty atom, a ground-false comparison (every
  /// ground branch of EvalCmp returns a zero-tuple relation on false).
  /// DBM conjunction proofs are set-level only -- a chain of selections
  /// can keep tuples whose constraint sets are infeasible -- as are
  /// FORALL proofs, whose double complement rebuilds a representation.
  Proof Prove(const Query& q) {
    switch (q.kind()) {
      case Query::Kind::kAtom: {
        Result<GeneralizedRelation> rel = db.Get(q.relation());
        bool empty = rel.ok() && rel.value().tuples().empty();
        return Mark(q, {empty, empty});
      }
      case Query::Kind::kCmp: {
        std::optional<bool> truth = GroundCmpTruth(q, sorts);
        bool empty = truth.has_value() && !truth.value();
        return Mark(q, {empty, empty});
      }
      case Query::Kind::kAnd: {
        Proof left = Prove(*q.left());
        Proof right = Prove(*q.right());
        // A join with a zero-tuple operand yields zero tuples.
        Proof p{left.empty || right.empty, left.bit || right.bit};
        if (!p.empty) {
          std::vector<QueryPtr> conjuncts;
          query::FlattenConjuncts(q.left(), &conjuncts);
          query::FlattenConjuncts(q.right(), &conjuncts);
          p.empty = ConjunctionInfeasible(conjuncts);
        }
        return Mark(q, p);
      }
      case Query::Kind::kOr: {
        Proof left = Prove(*q.left());
        Proof right = Prove(*q.right());
        return Mark(q, {left.empty && right.empty, left.bit && right.bit});
      }
      case Query::Kind::kNot:
        Prove(*q.left());
        return {};
      case Query::Kind::kExists: {
        // Projection of zero tuples is zero tuples.
        return Mark(q, Prove(*q.left()));
      }
      case Query::Kind::kForall: {
        Proof child = Prove(*q.left());
        auto it = sorts.find(q.quantified_var());
        bool safe_var = it == sorts.end() || it->second == Sort::kTime;
        return Mark(q, {child.empty && safe_var, false});
      }
    }
    return {};
  }
};

}  // namespace

EmptinessProof ProveEmptySubplans(const Database& db, const Query& q,
                                  const SortMap& sorts) {
  EmptinessProver prover{db, sorts, {}};
  prover.Prove(q);
  return std::move(prover.out);
}

}  // namespace analysis
}  // namespace itdb
