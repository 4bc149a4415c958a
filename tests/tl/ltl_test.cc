#include "tl/ltl.h"

#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "query/eval.h"

namespace itdb {
namespace tl {
namespace {

using F = TlFormula;

// p holds at {0, 5, 10, ...} going both ways: 0+5n.
// q holds at even instants >= 4.
// r holds at {1} only.
Database TestDb() {
  Result<Database> db = Database::FromText(R"(
    relation p(T: time) { [5n]; }
    relation q(T: time) { [2n] : T >= 4; }
    relation r(T: time) { [1]; }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

std::set<std::int64_t> SatWindow(const Database& db, const TlPtr& f,
                                 std::int64_t lo, std::int64_t hi) {
  Result<GeneralizedRelation> s = SatisfactionSet(db, f);
  EXPECT_TRUE(s.ok()) << s.status() << " for " << f->ToString();
  std::set<std::int64_t> out;
  if (!s.ok()) return out;
  for (const ConcreteRow& row : s.value().Enumerate(lo, hi)) {
    out.insert(row.temporal[0]);
  }
  return out;
}

// Reference: evaluate an equivalent first-order query (the query engine is
// itself property-tested against brute force).
std::set<std::int64_t> QueryWindow(const Database& db, const std::string& text,
                                   std::int64_t lo, std::int64_t hi) {
  Result<GeneralizedRelation> r = query::EvalQueryString(db, text);
  EXPECT_TRUE(r.ok()) << r.status() << " for " << text;
  std::set<std::int64_t> out;
  if (!r.ok()) return out;
  for (const ConcreteRow& row : r.value().Enumerate(lo, hi)) {
    out.insert(row.temporal[0]);
  }
  return out;
}

constexpr std::int64_t kLo = -20, kHi = 20;

TEST(LtlTest, PropAndBooleans) {
  Database db = TestDb();
  EXPECT_EQ(SatWindow(db, F::Prop("p"), kLo, kHi),
            QueryWindow(db, "p(t)", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::Not(F::Prop("p")), kLo, kHi),
            QueryWindow(db, "NOT p(t)", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::And(F::Prop("p"), F::Prop("q")), kLo, kHi),
            QueryWindow(db, "p(t) AND q(t)", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::Or(F::Prop("p"), F::Prop("r")), kLo, kHi),
            QueryWindow(db, "p(t) OR r(t)", kLo, kHi));
}

TEST(LtlTest, NextAndPrev) {
  Database db = TestDb();
  EXPECT_EQ(SatWindow(db, F::Next(F::Prop("p")), kLo, kHi),
            QueryWindow(db, "p(t + 1)", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::Prev(F::Prop("p")), kLo, kHi),
            QueryWindow(db, "p(t - 1)", kLo, kHi));
}

TEST(LtlTest, EventuallyAndOnceMatchQueries) {
  Database db = TestDb();
  EXPECT_EQ(SatWindow(db, F::Eventually(F::Prop("r")), kLo, kHi),
            QueryWindow(db, "EXISTS u . r(u) AND t <= u", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::Once(F::Prop("r")), kLo, kHi),
            QueryWindow(db, "EXISTS u . r(u) AND u <= t", kLo, kHi));
}

TEST(LtlTest, EventuallyOfPeriodicIsEverything) {
  Database db = TestDb();
  // p repeats forever in both directions: F p == P p == Z.
  EXPECT_TRUE(HoldsEverywhere(db, F::Eventually(F::Prop("p"))).value());
  EXPECT_TRUE(HoldsEverywhere(db, F::Once(F::Prop("p"))).value());
  // But G p fails everywhere (gaps repeat too).
  Result<GeneralizedRelation> g =
      SatisfactionSet(db, F::Always(F::Prop("p")));
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(IsEmpty(g.value()).value());
}

TEST(LtlTest, AlwaysMatchesQuery) {
  Database db = TestDb();
  // G q: q holds from every u >= t -- true iff t >= 4 and... q only covers
  // evens, so G q is empty; check against the query formulation instead of
  // intuition.
  EXPECT_EQ(SatWindow(db, F::Always(F::Prop("q")), kLo, kHi),
            QueryWindow(db, "FORALL u . t <= u -> q(u)", kLo, kHi));
  EXPECT_EQ(SatWindow(db, F::Historically(F::Prop("q")), kLo, kHi),
            QueryWindow(db, "FORALL u . u <= t -> q(u)", kLo, kHi));
}

TEST(LtlTest, InfinitelyOftenVsEventuallyAlways) {
  Database db = TestDb();
  // GF q == Z (q holds on all evens >= 4: infinitely often from anywhere).
  EXPECT_TRUE(
      HoldsEverywhere(db, F::Always(F::Eventually(F::Prop("q")))).value());
  // FG q == empty (odd gaps recur forever).
  Result<GeneralizedRelation> fg =
      SatisfactionSet(db, F::Eventually(F::Always(F::Prop("q"))));
  ASSERT_TRUE(fg.ok());
  EXPECT_TRUE(IsEmpty(fg.value()).value());
  // GF r == empty (r holds once, at 1: not infinitely often).
  Result<GeneralizedRelation> gf =
      SatisfactionSet(db, F::Always(F::Eventually(F::Prop("r"))));
  ASSERT_TRUE(gf.ok());
  EXPECT_TRUE(IsEmpty(gf.value()).value());
  // ...but F r holds up to instant 1.
  std::set<std::int64_t> fr = SatWindow(db, F::Eventually(F::Prop("r")), -5, 5);
  std::set<std::int64_t> expect;
  for (std::int64_t t = -5; t <= 1; ++t) expect.insert(t);
  EXPECT_EQ(fr, expect);
}

TEST(LtlTest, BoundedOperators) {
  Database db = TestDb();
  // F[0,3] p: some multiple of 5 within the next 3 steps: residues
  // {0, 2, 3, 4} mod 5.
  std::set<std::int64_t> got =
      SatWindow(db, F::EventuallyWithin(F::Prop("p"), 0, 3), kLo, kHi);
  std::set<std::int64_t> expect;
  for (std::int64_t t = kLo; t <= kHi; ++t) {
    std::int64_t r5 = ((t % 5) + 5) % 5;
    if (r5 != 1) expect.insert(t);
  }
  EXPECT_EQ(got, expect);
  // G[0,1] q: q at both t and t+1 -- impossible (q covers evens only).
  Result<GeneralizedRelation> g01 =
      SatisfactionSet(db, F::AlwaysWithin(F::Prop("q"), 0, 1));
  ASSERT_TRUE(g01.ok());
  EXPECT_TRUE(IsEmpty(g01.value()).value());
  // Negative offsets reach into the past: F[-1,0] r holds at 1 and 2.
  EXPECT_EQ(SatWindow(db, F::EventuallyWithin(F::Prop("r"), -1, 0), -5, 5),
            (std::set<std::int64_t>{1, 2}));
  EXPECT_FALSE(
      SatisfactionSet(db, F::EventuallyWithin(F::Prop("p"), 3, 1)).ok());
}

TEST(LtlTest, UntilMatchesQueryFormulation) {
  Database db = TestDb();
  // q U p: a p-point is reached while q holds on the way.
  EXPECT_EQ(
      SatWindow(db, F::Until(F::Prop("q"), F::Prop("p")), kLo, kHi),
      QueryWindow(db,
                  "EXISTS u . p(u) AND t <= u AND "
                  "(FORALL v . (t <= v AND v <= u - 1) -> q(v))",
                  kLo, kHi));
}

TEST(LtlTest, SinceMatchesQueryFormulation) {
  Database db = TestDb();
  EXPECT_EQ(
      SatWindow(db, F::Since(F::Prop("q"), F::Prop("p")), kLo, kHi),
      QueryWindow(db,
                  "EXISTS u . p(u) AND u <= t AND "
                  "(FORALL v . (u + 1 <= v AND v <= t) -> q(v))",
                  kLo, kHi));
}

TEST(LtlTest, UntilBaseCase) {
  Database db = TestDb();
  // anything U p holds wherever p holds (empty waiting interval).
  std::set<std::int64_t> sat =
      SatWindow(db, F::Until(F::Prop("r"), F::Prop("p")), kLo, kHi);
  for (std::int64_t t = kLo; t <= kHi; t += 5) {
    if (((t % 5) + 5) % 5 == 0) {
      EXPECT_TRUE(sat.contains(t)) << t;
    }
  }
}

TEST(LtlTest, ImpliesAndRequestResponse) {
  Database db = TestDb();
  // "Every r is followed by a p within 5 steps" -- a classical
  // request/response property; r = {1}, next p at 5: holds everywhere.
  TlPtr spec = F::Always(F::Implies(
      F::Prop("r"), F::EventuallyWithin(F::Prop("p"), 0, 5)));
  EXPECT_TRUE(HoldsEverywhere(db, spec).value());
  // Within 3 steps it fails (gap 1 -> 5 is 4).
  TlPtr tight = F::Always(F::Implies(
      F::Prop("r"), F::EventuallyWithin(F::Prop("p"), 0, 3)));
  EXPECT_FALSE(HoldsEverywhere(db, tight).value());
}

TEST(LtlTest, WeakUntilAndRelease) {
  Database db = TestDb();
  // q W p vs q U p: they differ exactly where G q would rescue -- here G q
  // is empty, so they coincide.
  Result<GeneralizedRelation> w =
      SatisfactionSet(db, F::WeakUntil(F::Prop("q"), F::Prop("p")));
  Result<GeneralizedRelation> u =
      SatisfactionSet(db, F::Until(F::Prop("q"), F::Prop("p")));
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(w.value().Enumerate(kLo, kHi), u.value().Enumerate(kLo, kHi));
  // true W false == G true == everything; true U false == empty.
  TlPtr truth = F::Or(F::Prop("p"), F::Not(F::Prop("p")));
  TlPtr falsity = F::And(F::Prop("p"), F::Not(F::Prop("p")));
  EXPECT_TRUE(HoldsEverywhere(db, F::WeakUntil(truth, falsity)).value());
  Result<GeneralizedRelation> uf =
      SatisfactionSet(db, F::Until(truth, falsity));
  ASSERT_TRUE(uf.ok());
  EXPECT_TRUE(IsEmpty(uf.value()).value());
  // Release duality: p R q == !( !p U !q ); check against the direct
  // formulation on the satisfaction sets.
  Result<GeneralizedRelation> rel =
      SatisfactionSet(db, F::Release(F::Prop("r"), F::Prop("q")));
  ASSERT_TRUE(rel.ok());
  Result<GeneralizedRelation> dual = SatisfactionSet(
      db, F::Not(F::Until(F::Not(F::Prop("r")), F::Not(F::Prop("q")))));
  ASSERT_TRUE(dual.ok());
  EXPECT_EQ(rel.value().Enumerate(kLo, kHi), dual.value().Enumerate(kLo, kHi));
}

TEST(LtlTest, HoldsAtSpotChecks) {
  Database db = TestDb();
  EXPECT_TRUE(HoldsAt(db, F::Prop("p"), 10).value());
  EXPECT_FALSE(HoldsAt(db, F::Prop("p"), 11).value());
  EXPECT_TRUE(HoldsAt(db, F::Next(F::Prop("p")), 9).value());
  EXPECT_TRUE(HoldsAt(db, F::Eventually(F::Prop("r")), -100).value());
  EXPECT_FALSE(HoldsAt(db, F::Eventually(F::Prop("r")), 2).value());
}

// The yes/no path (HoldsAt: the closed formula at a constant instant)
// agrees with the relation path (membership in SatisfactionSet) on every
// formula this suite evaluates, at every instant of the window.
TEST(LtlTest, HoldsAtAgreesWithSatisfactionSetMembership) {
  Database db = TestDb();
  const TlPtr p = F::Prop("p");
  const TlPtr q = F::Prop("q");
  const TlPtr r = F::Prop("r");
  const TlPtr truth = F::Or(p, F::Not(p));
  const TlPtr falsity = F::And(p, F::Not(p));
  const TlPtr formulas[] = {
      p,
      F::Not(p),
      F::And(p, q),
      F::Or(p, r),
      F::Next(p),
      F::Prev(p),
      F::Eventually(r),
      F::Once(r),
      F::Eventually(p),
      F::Once(p),
      F::Always(p),
      F::Always(q),
      F::Historically(q),
      F::Always(F::Eventually(q)),
      F::Eventually(F::Always(q)),
      F::Always(F::Eventually(r)),
      F::EventuallyWithin(p, 0, 3),
      F::AlwaysWithin(q, 0, 1),
      F::EventuallyWithin(r, -1, 0),
      F::Until(q, p),
      F::Since(q, p),
      F::Until(r, p),
      F::Always(F::Implies(r, F::EventuallyWithin(p, 0, 5))),
      F::Always(F::Implies(r, F::EventuallyWithin(p, 0, 3))),
      F::WeakUntil(q, p),
      F::WeakUntil(truth, falsity),
      F::Until(truth, falsity),
      F::Release(r, q),
      F::Not(F::Until(F::Not(r), F::Not(q))),
  };
  for (const TlPtr& f : formulas) {
    Result<GeneralizedRelation> sat = SatisfactionSet(db, f);
    ASSERT_TRUE(sat.ok()) << sat.status() << " for " << f->ToString();
    for (std::int64_t t = kLo; t <= kHi; ++t) {
      Result<bool> holds = HoldsAt(db, f, t);
      ASSERT_TRUE(holds.ok()) << holds.status() << " for " << f->ToString();
      EXPECT_EQ(holds.value(), sat.value().Contains({{t}, {}}))
          << f->ToString() << " at " << t;
    }
  }
  // A bounded operator with lo > hi fails on both paths.
  EXPECT_FALSE(HoldsAt(db, F::EventuallyWithin(p, 3, 1), 0).ok());
}

TEST(LtlTest, PropMustBeUnaryTemporal) {
  Result<Database> db = Database::FromText(R"(
    relation Pair(A: time, B: time) { [n, n]; }
    relation WithData(T: time, W: string) { [n | "x"]; }
  )");
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(SatisfactionSet(db.value(), F::Prop("Pair")).ok());
  EXPECT_FALSE(SatisfactionSet(db.value(), F::Prop("WithData")).ok());
  EXPECT_FALSE(SatisfactionSet(db.value(), F::Prop("Missing")).ok());
}

// The translation is the first-order definition of each operator, with
// fresh bound names t1, t2, ... that skip the free variable's name.  A
// universal prints as NOT EXISTS NOT, the tree Query::Forall builds.
TEST(LtlTest, ToQueryStatesTheFirstOrderDefinition) {
  const query::Term at = query::Term::Variable("T");
  auto text = [](Result<query::QueryPtr> q) {
    EXPECT_TRUE(q.ok()) << q.status();
    return q.ok() ? q.value()->ToString() : "";
  };
  EXPECT_EQ(text(ToQuery(*F::Always(F::Prop("p")), at)),
            "NOT (EXISTS t1 . (NOT ((NOT (T <= t1) OR p(t1)))))");
  EXPECT_EQ(text(ToQuery(*F::Until(F::Prop("p"), F::Prop("q")), at)),
            "EXISTS t1 . (((T <= t1 AND q(t1)) AND NOT (EXISTS t2 . (NOT "
            "((NOT ((T <= t2 AND t2 < t1)) OR p(t2)))))))");
  EXPECT_EQ(
      text(ToQuery(*F::EventuallyWithin(F::Next(F::Prop("p")), 1, 3), at)),
      "EXISTS t1 . (((T + 1 <= t1 AND t1 <= T + 3) AND p(t1 + 1)))");
  EXPECT_EQ(text(ToQuery(*F::Always(F::Prop("p")),
                         query::Term::Variable("t1"))),
            "NOT (EXISTS t2 . (NOT ((NOT (t1 <= t2) OR p(t2)))))");
  EXPECT_EQ(text(ToQuery(*F::Next(F::Prop("p")), query::Term::Int(4))),
            "p(5)");
  EXPECT_EQ(ToQuery(*F::Next(F::Prop("p")),
                    query::Term::Int(std::numeric_limits<std::int64_t>::max()))
                .status()
                .code(),
            StatusCode::kOverflow);
}

TEST(LtlTest, ToStringReadable) {
  TlPtr f = F::Always(F::Implies(F::Prop("req"),
                                 F::EventuallyWithin(F::Prop("ack"), 0, 5)));
  EXPECT_EQ(f->ToString(), "G((!(req) | F[0,5](ack)))");
}

}  // namespace
}  // namespace tl
}  // namespace itdb
