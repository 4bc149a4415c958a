#include "fuzz/query_gen.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace itdb {
namespace fuzz {

namespace {

using query::Query;
using query::QueryPtr;
using query::Term;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rng {
  std::uint64_t state;

  std::uint64_t Next() {
    state = SplitMix64(state);
    return state;
  }
  std::uint32_t Below(std::uint32_t n) {
    return n == 0 ? 0 : static_cast<std::uint32_t>(Next() % n);
  }
  bool Percent(int p) { return Below(100) < static_cast<std::uint32_t>(p); }
  std::int64_t IntIn(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

constexpr CmpOp kAllCmps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLe,
                              CmpOp::kLt, CmpOp::kGe, CmpOp::kGt};

/// Structural deep copy, so OR branches never share nodes (the analyzer
/// keys proven-empty nodes by pointer identity).
QueryPtr Clone(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAtom:
      return Query::Atom(q->relation(), q->args());
    case Query::Kind::kCmp:
      return Query::Compare(q->lhs(), q->cmp(), q->rhs());
    case Query::Kind::kAnd:
      return Query::And(Clone(q->left()), Clone(q->right()));
    case Query::Kind::kOr:
      return Query::Or(Clone(q->left()), Clone(q->right()));
    case Query::Kind::kNot:
      return Query::Not(Clone(q->left()));
    case Query::Kind::kExists:
      return Query::Exists(q->quantified_var(), Clone(q->left()));
  }
  return q;
}

struct Generator {
  Rng& rng;
  const Database& db;
  const QueryGenConfig& cfg;
  std::vector<std::string> relations;
  // Variables an atom has used so far, by sort (insertion-ordered).
  std::vector<std::string> temporal_vars;
  std::vector<std::string> string_vars;

  std::string PickTemporalVar() {
    // Reuse an existing variable 2/3 of the time (joins need shared vars).
    if (!temporal_vars.empty() && !rng.Percent(33)) {
      return temporal_vars[rng.Below(
          static_cast<std::uint32_t>(temporal_vars.size()))];
    }
    std::string var = "t" + std::to_string(temporal_vars.size());
    temporal_vars.push_back(var);
    return var;
  }

  std::string PickStringVar() {
    if (!string_vars.empty() && !rng.Percent(50)) {
      return string_vars[rng.Below(
          static_cast<std::uint32_t>(string_vars.size()))];
    }
    std::string var = "d" + std::to_string(string_vars.size());
    string_vars.push_back(var);
    return var;
  }

  std::string PickStringConst() { return rng.Percent(50) ? "a" : "b"; }

  QueryPtr MakeAtom() {
    const std::string& name =
        relations[rng.Below(static_cast<std::uint32_t>(relations.size()))];
    Result<GeneralizedRelation> rel = db.Get(name);
    const Schema& schema = rel.value().schema();
    std::vector<Term> args;
    for (int i = 0; i < schema.temporal_arity(); ++i) {
      if (rng.Percent(10)) {
        args.push_back(Term::Int(rng.IntIn(-cfg.const_range, cfg.const_range)));
      } else {
        std::int64_t offset =
            rng.Percent(25) ? rng.IntIn(-cfg.offset_range, cfg.offset_range)
                            : 0;
        args.push_back(Term::Variable(PickTemporalVar(), offset));
      }
    }
    for (int i = 0; i < schema.data_arity(); ++i) {
      if (schema.data_type(i) == DataType::kString) {
        if (rng.Percent(35)) {
          args.push_back(Term::String(PickStringConst()));
        } else {
          args.push_back(Term::Variable(PickStringVar()));
        }
      } else {
        args.push_back(Term::Int(rng.IntIn(-cfg.const_range, cfg.const_range)));
      }
    }
    return Query::Atom(name, std::move(args));
  }

  QueryPtr MakeCmp() {
    if (!string_vars.empty() && rng.Percent(25)) {
      const std::string& var =
          string_vars[rng.Below(static_cast<std::uint32_t>(string_vars.size()))];
      CmpOp op = rng.Percent(50) ? CmpOp::kEq : CmpOp::kNe;
      return Query::Compare(Term::Variable(var), op,
                            Term::String(PickStringConst()));
    }
    if (temporal_vars.empty()) {
      // Ground comparison; sometimes false on purpose.
      std::int64_t a = rng.IntIn(-cfg.const_range, cfg.const_range);
      std::int64_t b = rng.IntIn(-cfg.const_range, cfg.const_range);
      return Query::Compare(Term::Int(a), kAllCmps[rng.Below(6)], Term::Int(b));
    }
    const std::string& a = temporal_vars[rng.Below(
        static_cast<std::uint32_t>(temporal_vars.size()))];
    std::int64_t off = rng.Percent(40)
                           ? rng.IntIn(-cfg.offset_range, cfg.offset_range)
                           : 0;
    CmpOp op = kAllCmps[rng.Below(6)];
    if (temporal_vars.size() > 1 && rng.Percent(50)) {
      const std::string& b = temporal_vars[rng.Below(
          static_cast<std::uint32_t>(temporal_vars.size()))];
      return Query::Compare(Term::Variable(a, off), op, Term::Variable(b));
    }
    return Query::Compare(Term::Variable(a, off), op,
                          Term::Int(rng.IntIn(-cfg.const_range,
                                              cfg.const_range)));
  }

  /// t > c AND t < c: infeasible by a one-variable DBM argument.
  QueryPtr MakeContradiction() {
    if (temporal_vars.empty() || rng.Percent(30)) {
      return Query::And(
          Query::Compare(Term::Int(3), CmpOp::kLt, Term::Int(2)),
          Query::Compare(Term::Int(0), CmpOp::kEq, Term::Int(0)));
    }
    const std::string& var = temporal_vars[rng.Below(
        static_cast<std::uint32_t>(temporal_vars.size()))];
    std::int64_t c = rng.IntIn(-cfg.const_range, cfg.const_range);
    return Query::And(
        Query::Compare(Term::Variable(var), CmpOp::kGt, Term::Int(c)),
        Query::Compare(Term::Variable(var), CmpOp::kLt, Term::Int(c)));
  }

  /// One deliberately ill-formed conjunct; the oracle checks that analysis
  /// on/off FAIL consistently, not that they succeed.
  QueryPtr MakeIllFormed() {
    switch (rng.Below(3)) {
      case 0:  // Unknown relation.
        return Query::Atom("Zq", {Term::Variable(PickTemporalVar())});
      case 1:  // Arity mismatch.
        return Query::Atom(relations[0], {Term::Variable(PickTemporalVar()),
                                          Term::Variable(PickTemporalVar()),
                                          Term::Variable(PickTemporalVar()),
                                          Term::Variable(PickTemporalVar())});
      default:  // Mixed constant sorts.
        return Query::Compare(Term::String("a"), CmpOp::kEq, Term::Int(3));
    }
  }

  QueryPtr Generate() {
    std::vector<QueryPtr> conjuncts;
    int atoms = 1 + static_cast<int>(rng.Below(
                        static_cast<std::uint32_t>(cfg.max_atoms)));
    for (int i = 0; i < atoms; ++i) conjuncts.push_back(MakeAtom());
    int cmps = static_cast<int>(
        rng.Below(static_cast<std::uint32_t>(cfg.max_cmps + 1)));
    for (int i = 0; i < cmps; ++i) conjuncts.push_back(MakeCmp());
    if (rng.Percent(cfg.contradiction_percent)) {
      conjuncts.push_back(MakeContradiction());
    }
    if (rng.Percent(cfg.illformed_percent)) {
      conjuncts.push_back(MakeIllFormed());
    }
    // Occasionally negate one atom conjunct (never the only one).
    if (conjuncts.size() > 1 && rng.Percent(20)) {
      std::size_t i = rng.Below(static_cast<std::uint32_t>(conjuncts.size()));
      conjuncts[i] = Query::Not(std::move(conjuncts[i]));
    }
    QueryPtr out = std::move(conjuncts[0]);
    for (std::size_t i = 1; i < conjuncts.size(); ++i) {
      out = Query::And(std::move(out), std::move(conjuncts[i]));
    }
    // A dead OR branch: a clone of the core conjoined with a contradiction
    // has the same free variables, so the subset condition for elimination
    // holds by construction.
    if (rng.Percent(cfg.dead_branch_percent)) {
      QueryPtr dead = Query::And(Clone(out), MakeContradiction());
      out = rng.Percent(50) ? Query::Or(std::move(out), std::move(dead))
                            : Query::Or(std::move(dead), std::move(out));
    }
    // Quantify a prefix of the variable pools (distinct names: no
    // shadowing by construction).
    int quantifiers = 0;
    std::vector<std::string> candidates = temporal_vars;
    candidates.insert(candidates.end(), string_vars.begin(),
                      string_vars.end());
    std::set<std::string> quantified;
    while (quantifiers < cfg.max_quantifiers && !candidates.empty() &&
           rng.Percent(55)) {
      const std::string var = candidates[rng.Below(
          static_cast<std::uint32_t>(candidates.size()))];
      if (!quantified.insert(var).second) break;
      out = rng.Percent(85) ? Query::Exists(var, std::move(out))
                            : Query::Forall(var, std::move(out));
      ++quantifiers;
    }
    return out;
  }
};

}  // namespace

QueryPtr MakeRandomQuery(std::uint32_t seed, const Database& db,
                         const QueryGenConfig& cfg) {
  Rng rng{SplitMix64(0x51c5a9a3u ^ static_cast<std::uint64_t>(seed))};
  Generator gen{rng, db, cfg, db.Names(), {}, {}};
  if (gen.relations.empty()) {
    return Query::Compare(Term::Int(1), CmpOp::kEq, Term::Int(1));
  }
  return gen.Generate();
}

}  // namespace fuzz
}  // namespace itdb
