// Property tests for the query evaluator: randomized existential-positive
// queries (atoms, comparisons, AND, OR, EXISTS) are evaluated both by the
// engine (exact, symbolic) and by a brute-force evaluator over a wide
// window, and must agree on a narrow observation window.  Random AND
// chains are also compared, byte for byte, with the per-AND fold of
// tests/common/reference_chain.h.
//
// Soundness direction (every brute-force-true assignment is in the engine
// result) holds unconditionally; the completeness direction relies on the
// wide window containing all existential witnesses, which the small
// periods/offsets/bounds of the generated databases guarantee with a wide
// margin.  Everything is seeded and deterministic.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "common/reference_chain.h"
#include "core/algebra.h"
#include "query/eval.h"
#include "query/sorts.h"
#include "storage/database.h"

namespace itdb {
namespace query {
namespace {

constexpr std::int64_t kInnerWindow = 5;
constexpr std::int64_t kOuterWindow = 40;

Database MakeDb(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> period_pick(1, 4);
  std::uniform_int_distribution<std::int64_t> offset_pick(-5, 5);
  std::uniform_int_distribution<std::int64_t> bound_pick(-4, 4);
  std::uniform_int_distribution<int> tuples_pick(1, 3);
  Database db;
  {
    GeneralizedRelation r(Schema({"A", "B"}, {}, {}));
    int n = tuples_pick(rng);
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t({Lrp::Make(offset_pick(rng), period_pick(rng)),
                          Lrp::Make(offset_pick(rng), period_pick(rng))});
      t.mutable_constraints().AddDifferenceUpperBound(0, 1, bound_pick(rng));
      EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
    }
    db.Put("R", std::move(r));
  }
  {
    GeneralizedRelation r(Schema({"T"}, {}, {}));
    int n = tuples_pick(rng);
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t({Lrp::Make(offset_pick(rng), period_pick(rng))});
      if (i % 2 == 0) {
        t.mutable_constraints().AddLowerBound(0, bound_pick(rng));
      }
      EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
    }
    db.Put("U", std::move(r));
  }
  return db;
}

// A random existential-positive query over temporal variables a, b, c with
// some subset quantified.
QueryPtr MakeQuery(std::uint32_t seed, std::vector<std::string>* free_vars) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> var_pick(0, 2);
  std::uniform_int_distribution<int> atom_pick(0, 3);
  std::uniform_int_distribution<std::int64_t> const_pick(-4, 4);
  std::uniform_int_distribution<int> connective_pick(0, 1);
  const std::string vars[3] = {"a", "b", "c"};
  auto term = [&](int v) { return Term::Variable(vars[v]); };
  auto make_atom = [&]() -> QueryPtr {
    switch (atom_pick(rng)) {
      case 0:
        return Query::Atom("R", {term(var_pick(rng)), term(var_pick(rng))});
      case 1:
        return Query::Atom("U", {term(var_pick(rng))});
      case 2:
        return Query::Compare(
            Term::Variable(vars[var_pick(rng)], const_pick(rng)),
            CmpOp::kLe, term(var_pick(rng)));
      default:
        return Query::Compare(term(var_pick(rng)), CmpOp::kLe,
                              Term::Int(const_pick(rng)));
    }
  };
  // 3-4 atoms combined left-deep with random AND/OR.
  QueryPtr q = make_atom();
  // Guarantee every variable occurs (so sorts are inferable): conjoin one
  // atom per variable.
  for (int v = 0; v < 3; ++v) {
    q = Query::And(std::move(q), Query::Atom("U", {term(v)}));
  }
  int extra = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < extra; ++i) {
    QueryPtr atom = make_atom();
    q = connective_pick(rng) == 0 ? Query::And(std::move(q), std::move(atom))
                                  : Query::Or(std::move(q), std::move(atom));
  }
  // Quantify a suffix of the variables.
  int quantified = static_cast<int>(rng() % 3);  // 0..2 quantified.
  for (int v = 0; v < quantified; ++v) {
    q = Query::Exists(vars[v], std::move(q));
  }
  free_vars->clear();
  for (int v = quantified; v < 3; ++v) free_vars->push_back(vars[v]);
  return q;
}

// Brute-force evaluation with all quantifiers ranging over
// [-kOuterWindow, kOuterWindow].
bool BruteEval(const Query& q, std::map<std::string, std::int64_t>& assign,
               const Database& db) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      GeneralizedRelation rel = db.Get(q.relation()).value();
      std::vector<std::int64_t> point;
      point.reserve(q.args().size());
      for (const Term& t : q.args()) {
        point.push_back(t.kind == Term::Kind::kInt
                            ? t.number
                            : assign.at(t.var) + t.number);
      }
      return rel.Contains({point, {}});
    }
    case Query::Kind::kCmp: {
      auto value = [&assign](const Term& t) {
        return t.kind == Term::Kind::kInt ? t.number
                                          : assign.at(t.var) + t.number;
      };
      std::int64_t l = value(q.lhs());
      std::int64_t r = value(q.rhs());
      return Holds(l, q.cmp(), r);
    }
    case Query::Kind::kAnd:
      return BruteEval(*q.left(), assign, db) &&
             BruteEval(*q.right(), assign, db);
    case Query::Kind::kOr:
      return BruteEval(*q.left(), assign, db) ||
             BruteEval(*q.right(), assign, db);
    case Query::Kind::kExists: {
      for (std::int64_t v = -kOuterWindow; v <= kOuterWindow; ++v) {
        assign[q.quantified_var()] = v;
        bool hit = BruteEval(*q.left(), assign, db);
        assign.erase(q.quantified_var());
        if (hit) return true;
      }
      return false;
    }
    default:
      ADD_FAILURE() << "unexpected node in existential-positive query";
      return false;
  }
}

class QueryPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QueryPropertyTest, EngineAgreesWithBruteForceOnWindow) {
  Database db = MakeDb(GetParam());
  std::vector<std::string> free_vars;
  QueryPtr q = MakeQuery(GetParam() + 10000, &free_vars);
  Result<GeneralizedRelation> engine = EvalQuery(db, q);
  ASSERT_TRUE(engine.ok()) << engine.status() << "\n" << q->ToString();
  // The engine result's columns are the free variables, sorted.
  std::vector<std::string> sorted_free = free_vars;
  std::sort(sorted_free.begin(), sorted_free.end());
  ASSERT_EQ(engine.value().schema().temporal_names(), sorted_free);

  // Sweep all assignments of the free variables in the inner window.
  std::vector<std::int64_t> point(free_vars.size(), -kInnerWindow);
  while (true) {
    std::map<std::string, std::int64_t> assign;
    for (std::size_t i = 0; i < free_vars.size(); ++i) {
      assign[sorted_free[i]] = point[i];
    }
    bool brute = BruteEval(*q, assign, db);
    bool symbolic = engine.value().Contains({point, {}});
    EXPECT_EQ(symbolic, brute)
        << q->ToString() << " at " << ::testing::PrintToString(point);
    if (free_vars.empty()) break;
    std::size_t d = free_vars.size();
    while (d > 0) {
      if (++point[d - 1] <= kInnerWindow) break;
      point[d - 1] = -kInnerWindow;
      --d;
    }
    if (d == 0) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{60}));

// ---- Data-sorted variables: random queries over a relation with a data
// column, compared against brute force (temporal vars over the wide window,
// data vars over the explicit active domain).

Database MakeDataDb(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> period_pick(1, 4);
  std::uniform_int_distribution<std::int64_t> offset_pick(-5, 5);
  const char* names[3] = {"x", "y", "z"};
  Database db;
  GeneralizedRelation r(Schema({"T"}, {"W"}, {DataType::kString}));
  int n = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    GeneralizedTuple t({Lrp::Make(offset_pick(rng), period_pick(rng))},
                       {Value(names[rng() % 3])});
    EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
  }
  db.Put("Who", std::move(r));
  return db;
}

bool BruteEvalData(const Query& q,
                   std::map<std::string, std::int64_t>& tassign,
                   std::map<std::string, Value>& dassign, const Database& db,
                   const std::vector<Value>& adomain) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      GeneralizedRelation rel = db.Get(q.relation()).value();
      // Who(T, W): first arg temporal, second data.
      std::int64_t t = q.args()[0].kind == Term::Kind::kInt
                           ? q.args()[0].number
                           : tassign.at(q.args()[0].var) + q.args()[0].number;
      Value w = q.args()[1].kind == Term::Kind::kString
                    ? Value(q.args()[1].text)
                    : dassign.at(q.args()[1].var);
      return rel.Contains({{t}, {w}});
    }
    case Query::Kind::kCmp: {
      // Either a temporal comparison or a data equality.
      const Term& l = q.lhs();
      const Term& r = q.rhs();
      bool data = (l.kind == Term::Kind::kVariable && dassign.contains(l.var)) ||
                  (r.kind == Term::Kind::kVariable && dassign.contains(r.var)) ||
                  l.kind == Term::Kind::kString || r.kind == Term::Kind::kString;
      if (data) {
        Value lv = l.kind == Term::Kind::kString ? Value(l.text)
                                                 : dassign.at(l.var);
        Value rv = r.kind == Term::Kind::kString ? Value(r.text)
                                                 : dassign.at(r.var);
        return q.cmp() == CmpOp::kEq ? lv == rv : lv != rv;
      }
      auto value = [&tassign](const Term& t) {
        return t.kind == Term::Kind::kInt ? t.number
                                          : tassign.at(t.var) + t.number;
      };
      std::int64_t lv = value(l);
      std::int64_t rv = value(r);
      return Holds(lv, q.cmp(), rv);
    }
    case Query::Kind::kAnd:
      return BruteEvalData(*q.left(), tassign, dassign, db, adomain) &&
             BruteEvalData(*q.right(), tassign, dassign, db, adomain);
    case Query::Kind::kOr:
      return BruteEvalData(*q.left(), tassign, dassign, db, adomain) ||
             BruteEvalData(*q.right(), tassign, dassign, db, adomain);
    case Query::Kind::kExists: {
      const std::string& v = q.quantified_var();
      // Data variables in this suite are named w1/w2; temporal a/b.
      if (v[0] == 'w') {
        for (const Value& value : adomain) {
          dassign[v] = value;
          bool hit = BruteEvalData(*q.left(), tassign, dassign, db, adomain);
          dassign.erase(v);
          if (hit) return true;
        }
        return false;
      }
      for (std::int64_t t = -kOuterWindow; t <= kOuterWindow; ++t) {
        tassign[v] = t;
        bool hit = BruteEvalData(*q.left(), tassign, dassign, db, adomain);
        tassign.erase(v);
        if (hit) return true;
      }
      return false;
    }
    default:
      ADD_FAILURE() << "unexpected node";
      return false;
  }
}

class DataQueryPropertyTest : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(DataQueryPropertyTest, EngineAgreesWithBruteForce) {
  std::mt19937 rng(GetParam() + 5000);
  Database db = MakeDataDb(GetParam() + 20000);
  // Query shape: EXISTS w1 . EXISTS w2 . EXISTS b .
  //   Who(a, w1) AND Who(b, w2) AND <random extras>; free temporal var a.
  std::uniform_int_distribution<int> extra_pick(0, 3);
  QueryPtr body = Query::And(
      Query::Atom("Who", {Term::Variable("a"), Term::Variable("w1")}),
      Query::Atom("Who", {Term::Variable("b"), Term::Variable("w2")}));
  switch (extra_pick(rng)) {
    case 0:
      body = Query::And(std::move(body),
                        Query::Compare(Term::Variable("w1"), CmpOp::kNe,
                                       Term::Variable("w2")));
      break;
    case 1:
      body = Query::And(std::move(body),
                        Query::Compare(Term::Variable("w1"), CmpOp::kEq,
                                       Term::String("x")));
      break;
    case 2:
      body = Query::And(std::move(body),
                        Query::Compare(Term::Variable("a"), CmpOp::kLe,
                                       Term::Variable("b", -1)));
      break;
    default:
      body = Query::Or(std::move(body),
                       Query::Atom("Who", {Term::Variable("a"),
                                           Term::String("y")}));
      break;
  }
  QueryPtr q = Query::Exists(
      "w1", Query::Exists("w2", Query::Exists("b", std::move(body))));

  Result<GeneralizedRelation> engine = EvalQuery(db, q);
  ASSERT_TRUE(engine.ok()) << engine.status() << "\n" << q->ToString();
  std::vector<Value> adomain = {Value("x"), Value("y"), Value("z")};
  for (std::int64_t a = -kInnerWindow; a <= kInnerWindow; ++a) {
    std::map<std::string, std::int64_t> tassign{{"a", a}};
    std::map<std::string, Value> dassign;
    bool brute = BruteEvalData(*q, tassign, dassign, db, adomain);
    bool symbolic = engine.value().Contains({{a}, {}});
    EXPECT_EQ(symbolic, brute) << q->ToString() << " at a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataQueryPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{30}));

// ---- AND chains: the evaluator's one chain pull against the per-AND fold
// (tests/common/reference_chain.h), byte for byte.

Database MakeChainDb(std::uint32_t seed) {
  testing_util::RandomRelationConfig cfg;
  cfg.periods = {0, 1, 2, 3, 4};
  cfg.offset_range = 5;
  cfg.bound_range = 4;
  cfg.num_tuples = 4;
  Database db;
  db.Put("P", testing_util::MakeRandomRelation(seed, cfg));
  db.Put("Q", testing_util::MakeRandomRelation(seed + 1, cfg));
  cfg.temporal_arity = 1;
  db.Put("U", testing_util::MakeRandomRelation(seed + 2, cfg));
  cfg.data_values = {Value("x"), Value("y")};
  db.Put("W", testing_util::MakeRandomRelation(seed + 3, cfg));
  return db;
}

// A left-deep chain of 3-5 conjuncts over temporal variables a, b, c and
// data variable w: atoms, comparisons, and one NOT of an atom.
QueryPtr MakeChain(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::string vars[3] = {"a", "b", "c"};
  auto var = [&]() { return Term::Variable(vars[rng() % 3]); };
  auto atom = [&]() -> QueryPtr {
    switch (rng() % 4) {
      case 0:
        return Query::Atom("P", {var(), var()});
      case 1:
        return Query::Atom("Q", {var(), var()});
      case 2:
        return Query::Atom("U", {var()});
      default:
        return Query::Atom("W", {var(), Term::Variable("w")});
    }
  };
  auto conjunct = [&]() -> QueryPtr {
    if (rng() % 3 != 0) return atom();
    const std::int64_t k = static_cast<std::int64_t>(rng() % 7) - 3;
    Term lhs = var();
    Term rhs = rng() % 2 == 0 ? Term::Variable(vars[rng() % 3], k)
                              : Term::Int(k);
    return Query::Compare(std::move(lhs), CmpOp::kLe, std::move(rhs));
  };
  const int n = 3 + static_cast<int>(rng() % 3);
  const int negated = static_cast<int>(rng() % static_cast<std::uint32_t>(n));
  QueryPtr chain;
  for (int i = 0; i < n; ++i) {
    QueryPtr c = i == negated ? Query::Not(atom()) : conjunct();
    chain = chain == nullptr ? std::move(c)
                             : Query::And(std::move(chain), std::move(c));
  }
  return chain;
}

class ChainPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChainPropertyTest, ChainPullMatchesThePerAndFold) {
  Database db = MakeChainDb(GetParam() * 7 + 30000);
  QueryPtr q = MakeChain(GetParam() + 40000);
  QueryOptions options;
  options.analyze = false;
  options.optimize = false;
  options.cost_plan = false;
  // Every child is evaluated as the written tree's child is.
  auto eval_child = [&](const QueryPtr& child) {
    return EvalQuery(db, child, options);
  };
  Result<GeneralizedRelation> reference =
      testing_util::ReferenceChain(q, eval_child, options.algebra);
  ASSERT_TRUE(reference.ok()) << reference.status() << "\n" << q->ToString();
  for (bool planned : {false, true}) {
    options.cost_plan = planned;
    Result<GeneralizedRelation> engine = EvalQuery(db, q, options);
    ASSERT_TRUE(engine.ok()) << engine.status() << "\n" << q->ToString();
    EXPECT_EQ(engine->schema(), reference->schema()) << q->ToString();
    EXPECT_EQ(engine->tuples(), reference->tuples())
        << q->ToString() << " planned=" << planned;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{60}));

// ---- EXISTS and OR keep one copy of equal tuples.

bool HasEqualTuples(const GeneralizedRelation& r) {
  std::vector<GeneralizedTuple> sorted = r.tuples();
  std::sort(sorted.begin(), sorted.end(), CanonicalTupleLess);
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

class SetPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

// Over random chains of MakeRandomRelation atoms, in written and planned
// order: EXISTS of each free variable, and OR of the chain with itself and
// with the chain under a bound on its first variable, never hold two equal
// tuples, and each is Equivalent to the plain Project or Union.  A union
// with an empty operand is the other operand as it was
// (analysis/rewrite.h).
TEST_P(SetPropertyTest, ExistsAndOrKeepOneCopyOfEqualTuples) {
  Database db = MakeChainDb(GetParam() * 7 + 50000);
  const std::uint32_t seed = GetParam() + 60000;
  const std::vector<std::string> free = MakeChain(seed)->FreeVariables();
  // The chain's variables are sorted, so the first is temporal.
  const std::function<QueryPtr()> operands[] = {
      [&] { return MakeChain(seed); },
      [&] {
        return Query::And(
            MakeChain(seed),
            Query::Compare(Term::Variable(free.front()), CmpOp::kLe,
                           Term::Int(static_cast<std::int64_t>(seed % 5) - 2)));
      }};
  QueryOptions options;
  options.analyze = false;
  options.optimize = false;
  for (bool planned : {false, true}) {
    options.cost_plan = planned;
    Result<GeneralizedRelation> body = EvalQuery(db, MakeChain(seed), options);
    ASSERT_TRUE(body.ok()) << body.status();
    for (const std::string& var : free) {
      QueryPtr q = Query::Exists(var, MakeChain(seed));
      Result<GeneralizedRelation> got = EvalQuery(db, q, options);
      ASSERT_TRUE(got.ok()) << got.status() << "\n" << q->ToString();
      EXPECT_FALSE(HasEqualTuples(*got)) << q->ToString();
      std::vector<std::string> keep;
      for (const std::string& v : body->schema().temporal_names()) {
        if (v != var) keep.push_back(v);
      }
      for (const std::string& v : body->schema().data_names()) {
        if (v != var) keep.push_back(v);
      }
      Result<GeneralizedRelation> plain =
          Project(*body, keep, options.algebra);
      ASSERT_TRUE(plain.ok()) << plain.status();
      EXPECT_EQ(got->schema(), plain->schema());
      Result<bool> same = Equivalent(*got, *plain, options.algebra);
      ASSERT_TRUE(same.ok()) << same.status() << "\n" << q->ToString();
      EXPECT_TRUE(*same) << q->ToString() << " planned=" << planned;
    }
    for (const std::function<QueryPtr()>& right : operands) {
      QueryPtr q = Query::Or(MakeChain(seed), right());
      Result<GeneralizedRelation> operand = EvalQuery(db, right(), options);
      ASSERT_TRUE(operand.ok()) << operand.status();
      Result<GeneralizedRelation> got = EvalQuery(db, q, options);
      ASSERT_TRUE(got.ok()) << got.status() << "\n" << q->ToString();
      Result<GeneralizedRelation> plain =
          Union(*body, *operand, options.algebra);
      ASSERT_TRUE(plain.ok()) << plain.status();
      if (body->size() > 0 && operand->size() > 0) {
        EXPECT_FALSE(HasEqualTuples(*got)) << q->ToString();
      } else {
        EXPECT_EQ(got->tuples(), plain->tuples()) << q->ToString();
      }
      Result<bool> same = Equivalent(*got, *plain, options.algebra);
      ASSERT_TRUE(same.ok()) << same.status() << "\n" << q->ToString();
      EXPECT_TRUE(*same) << q->ToString() << " planned=" << planned;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{60}));

}  // namespace
}  // namespace query
}  // namespace itdb
