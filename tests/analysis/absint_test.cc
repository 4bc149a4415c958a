#include "analysis/absint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "query/sorts.h"
#include "storage/database.h"

namespace itdb {
namespace analysis {
namespace {

using query::ParseQuery;
using query::QueryPtr;

Database SmallDb() {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n] : T >= 3; }
    relation Q(T: time) { [4n]; }
    relation Wide(T: time) { [0+2n] : T >= 0 && T <= 100; }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

QueryPtr Parse(const std::string& text) {
  Result<QueryPtr> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status() << " for " << text;
  return std::move(q).value();
}

query::SortMap SortsFor(const Database& db, const QueryPtr& q) {
  Result<query::SortMap> sorts = query::InferSorts(db, q);
  EXPECT_TRUE(sorts.ok()) << sorts.status();
  return std::move(sorts).value();
}

/// The root certificate of `text`, from an interpreter of its own.
Certificate CertOf(const Database& db, const std::string& text) {
  QueryPtr q = Parse(text);
  AbstractInterpreter interp(db, SortsFor(db, q));
  return interp.Interpret(q);
}

// -------------------------------------------------------------------- Zone

TEST(ZoneTest, TopBottomAndUnaryBounds) {
  Zone top = Zone::Top({"t"});
  EXPECT_FALSE(top.refuted());
  EXPECT_EQ(top.Lower("t"), -Dbm::kInf);
  EXPECT_EQ(top.Upper("t"), Dbm::kInf);
  Zone bottom = Zone::Bottom({"t"});
  EXPECT_TRUE(bottom.refuted());
  EXPECT_GT(bottom.Lower("t"), bottom.Upper("t"));
  EXPECT_TRUE(Zone::Bottom({}).refuted());
  // A variable the zone does not list is unconstrained.
  Zone bounded{{"t"}, Dbm(1)};
  bounded.dbm.AddLowerBound(0, 5);
  bounded.dbm.AddUpperBound(0, 9);
  ASSERT_TRUE(bounded.dbm.Close().ok());
  EXPECT_EQ(bounded.Lower("t"), 5);
  EXPECT_EQ(bounded.Upper("t"), 9);
  EXPECT_EQ(bounded.Lower("u"), -Dbm::kInf);
  EXPECT_EQ(bounded.Upper("u"), Dbm::kInf);
}

TEST(ZoneTest, BoundsPastTheSafeRangeAreDroppedNotWrapped) {
  Database db = SmallDb();
  // 4e18 exceeds Dbm::kBoundLimit (2^61): the bound is dropped, which
  // leaves t unbounded above instead of wrapping or failing.
  QueryPtr q = Parse("P(t) AND t <= 4000000000000000000");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  EXPECT_EQ(cert.zone.Lower("t"), 3);
  EXPECT_EQ(cert.zone.Upper("t"), Dbm::kInf);
}

// ------------------------------------------------------------ Certificates

TEST(AbsintTest, AtomCertificateMatchesStoredStats) {
  Database db = SmallDb();
  QueryPtr q = Parse("P(t)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  ASSERT_TRUE(cert.rows.has_value());
  EXPECT_EQ(*cert.rows, 1);  // One stored generalized tuple.
  ASSERT_TRUE(cert.lcm.has_value());
  EXPECT_EQ(*cert.lcm, 10);
  EXPECT_EQ(cert.zone.vars, std::vector<std::string>{"t"});
  EXPECT_EQ(cert.zone.Lower("t"), 3);  // T >= 3 constraint.
  EXPECT_EQ(cert.zone.Upper("t"), Dbm::kInf);
}

TEST(AbsintTest, ConjunctionMultipliesRowsAndComposesLcm) {
  Database db = SmallDb();
  QueryPtr q = Parse("P(t) AND Q(t)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  ASSERT_TRUE(cert.rows.has_value());
  EXPECT_EQ(*cert.rows, 1);  // 1 x 1.
  ASSERT_TRUE(cert.lcm.has_value());
  EXPECT_EQ(*cert.lcm, 20);  // lcm(10, 4).
}

TEST(AbsintTest, ComparisonsNarrowTheZone) {
  Database db = SmallDb();
  QueryPtr q = Parse("Wide(t) AND t >= 10 AND t <= 20");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  EXPECT_EQ(cert.zone.Lower("t"), 10);
  EXPECT_EQ(cert.zone.Upper("t"), 20);
  EXPECT_FALSE(cert.ProvenEmpty());
}

TEST(AbsintTest, ContradictoryComparisonsRefuteTheZone) {
  Database db = SmallDb();
  QueryPtr q = Parse("Wide(t) AND t > 200");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  // Stored hull is [0, 100]; t > 200 closes to an infeasible zone.
  EXPECT_TRUE(cert.zone.refuted());
  EXPECT_TRUE(cert.ProvenEmpty());
  ASSERT_TRUE(cert.rows.has_value());
  EXPECT_GT(*cert.rows, 0);  // A set-level proof only.
}

TEST(AbsintTest, DifferenceConstraintsBoundThroughExists) {
  Database db = SmallDb();
  // t + 5 <= u <= 7 bounds t by 2 only through the difference constraint;
  // eliminating u keeps that bound.
  QueryPtr q = Parse("EXISTS u . (Wide(t) AND Wide(u) AND t + 5 <= u AND "
                     "u <= 7)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  EXPECT_EQ(cert.zone.vars, std::vector<std::string>{"t"});
  EXPECT_EQ(cert.zone.Lower("t"), 0);
  EXPECT_EQ(cert.zone.Upper("t"), 2);
}

TEST(AbsintTest, DisjunctionJoinsTheZones) {
  Database db = SmallDb();
  Certificate cert = CertOf(
      db, "(Wide(t) AND t <= 10) OR (Wide(t) AND t >= 50 AND t <= 60)");
  EXPECT_EQ(cert.zone.Lower("t"), 0);
  EXPECT_EQ(cert.zone.Upper("t"), 60);
  // A refuted branch contributes nothing to the join.
  Certificate pruned =
      CertOf(db, "(Wide(t) AND t > 200) OR (Wide(t) AND t <= 5)");
  EXPECT_EQ(pruned.zone.Lower("t"), 0);
  EXPECT_EQ(pruned.zone.Upper("t"), 5);
  // A difference bound holding on both sides survives as the weaker one.
  Certificate diff = CertOf(db,
                            "(Wide(t) AND Wide(u) AND u <= t + 3) OR "
                            "(Wide(t) AND Wide(u) AND u <= t + 5)");
  ASSERT_EQ(diff.zone.vars, (std::vector<std::string>{"t", "u"}));
  EXPECT_EQ(diff.zone.dbm.bound_node(2, 1), 5);  // u - t <= 5.
  // A variable missing from one side is unconstrained in the union.
  Certificate missing =
      CertOf(db, "(Wide(t) AND t <= 10) OR (Wide(u) AND t <= 20)");
  EXPECT_EQ(missing.zone.Upper("t"), 20);
  EXPECT_EQ(missing.zone.Upper("u"), Dbm::kInf);
}

TEST(AbsintTest, NotEqualContributesNothing) {
  Database db = SmallDb();
  QueryPtr q = Parse("Wide(t) AND t != 50");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  const Certificate* wide = interp.Find(q->left().get());
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(cert.zone, wide->zone);
  const Certificate* ne = interp.Find(q->right().get());
  ASSERT_NE(ne, nullptr);
  EXPECT_EQ(ne->zone, Zone::Top({"t"}));
  EXPECT_EQ(ne->rows, 2);  // Two branches: t < 50 and t > 50.
}

TEST(AbsintTest, OverflowingClosureFallsBackToTop) {
  Database db = SmallDb();
  // Each bound is inside Dbm::kBoundLimit, but closing their conjunction
  // derives t - u <= 4e18, past it: the zone drops every constraint.
  QueryPtr q = Parse("t <= 2000000000000000000 AND "
                     "u >= -2000000000000000000");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  const Certificate* left = interp.Find(q->left().get());
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->zone.Upper("t"), 2000000000000000000);
  EXPECT_EQ(cert.zone, Zone::Top({"t", "u"}));
}

TEST(AbsintTest, ForallOfARefutedTemporalBodyIsBottom) {
  Database db = SmallDb();
  Certificate cert =
      CertOf(db, "FORALL u . (Wide(t) AND Wide(u) AND u > 200)");
  EXPECT_EQ(cert.zone.vars, std::vector<std::string>{"t"});
  EXPECT_TRUE(cert.zone.refuted());
  EXPECT_FALSE(cert.rows.has_value());
  // A satisfiable body gives top.
  Certificate open = CertOf(db, "FORALL u . (Wide(u) AND u <= t)");
  EXPECT_EQ(open.zone, Zone::Top({"t"}));
}

TEST(AbsintTest, ForallOverADataVariableStaysTop) {
  Result<Database> db = Database::FromText(R"(
    relation Who(T: time, W: string) { [2n | "alice"]; }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  // Over an empty active domain FORALL w is vacuously true, so an empty
  // body proves nothing.
  QueryPtr q = Parse("FORALL w . (Who(t, w) AND 3 < 2)");
  AbstractInterpreter interp(db.value(), SortsFor(db.value(), q));
  const Certificate& cert = interp.Interpret(q);
  // NOT EXISTS w . NOT body.
  const Certificate* body = interp.Find(q->left()->left()->left().get());
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->ProvenEmpty());
  EXPECT_FALSE(cert.ProvenEmpty());
}

TEST(AbsintTest, ZeroRowsAbsorbAndGroundFalseComparisonsHaveNone) {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n]; }
    relation None(T: time) { }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  // The complement is unbounded, but a join with zero tuples has none.
  EXPECT_EQ(CertOf(db.value(), "None(t) AND NOT P(t)").rows, 0);
  EXPECT_EQ(CertOf(db.value(), "P(t) AND 3 < 2").rows, 0);
  EXPECT_EQ(CertOf(db.value(), "P(t) AND t < t").rows, 0);
  EXPECT_EQ(CertOf(db.value(), "P(t) AND t <= t + 1").rows, 1);
}

TEST(AbsintTest, ComplementIsRowsUnboundedButKeepsTheLcm) {
  Database db = SmallDb();
  QueryPtr q = Parse("NOT P(t)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  EXPECT_FALSE(cert.rows.has_value());
  EXPECT_FALSE(cert.bounded());
  ASSERT_TRUE(cert.lcm.has_value());
  EXPECT_EQ(*cert.lcm, 10);
}

TEST(AbsintTest, LcmPastTheBudgetReportsUnbounded) {
  Result<Database> db = Database::FromText(R"(
    relation A(T: time) { [100003n]; }
    relation B(T: time) { [100019n]; }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  QueryPtr q = Parse("A(t) AND B(t)");
  AbstractInterpreter interp(db.value(), SortsFor(db.value(), q));
  const Certificate& cert = interp.Interpret(q);
  // Each atom's lcm is within the budget, but their lcm is not.
  static_assert(100003LL * 100019LL > kMaxCertifiedLcm);
  const Certificate* a = interp.Find(q->left().get());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->lcm, 100003);
  EXPECT_FALSE(cert.lcm.has_value());
}

TEST(AbsintTest, ConjoinAlgebraMatchesInterpretedAnd) {
  Database db = SmallDb();
  QueryPtr q = Parse("P(t) AND Q(t)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& whole = interp.Interpret(q);
  const Certificate* l = interp.Find(q->left().get());
  const Certificate* r = interp.Find(q->right().get());
  ASSERT_NE(l, nullptr);
  ASSERT_NE(r, nullptr);
  Certificate joined = interp.Conjoin(*l, *r);
  EXPECT_EQ(joined.rows, whole.rows);
  EXPECT_EQ(joined.lcm, whole.lcm);
  EXPECT_EQ(joined.zone, whole.zone);
}

TEST(AbsintTest, RegisterAttachesCertificatesToRebuiltNodes) {
  Database db = SmallDb();
  QueryPtr q = Parse("P(t)");
  AbstractInterpreter interp(db, SortsFor(db, q));
  Certificate cert = interp.Interpret(q);
  QueryPtr rebuilt = Parse("P(t)");
  EXPECT_EQ(interp.Find(rebuilt.get()), nullptr);
  interp.Register(rebuilt.get(), cert);
  const Certificate* found = interp.Find(rebuilt.get());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->rows, cert.rows);
}

TEST(AbsintTest, FormatCertificateRendersBoundsAndEmptiness) {
  Certificate cert;
  cert.rows = 12;
  cert.lcm = 6;
  EXPECT_EQ(FormatCertificate(cert), "cert_rows=12, cert_lcm=6");
  cert.rows.reset();
  cert.zone = Zone::Bottom({"t"});
  EXPECT_EQ(FormatCertificate(cert),
            "cert_rows=unbounded, cert_lcm=6, cert_empty=set");
  // Zero rows is the bit-level proof; it prints the same mark.
  cert.rows = 0;
  cert.zone = Zone::Top({"t"});
  EXPECT_EQ(FormatCertificate(cert), "cert_rows=0, cert_lcm=6, cert_empty=set");
}

}  // namespace
}  // namespace analysis
}  // namespace itdb
