#include "analysis/absint.h"

#include <string>

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

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, IntersectUnionAndEmptiness) {
  Interval a{0, 10};
  Interval b{5, 20};
  EXPECT_EQ(a.Intersect(b), (Interval{5, 10}));
  EXPECT_EQ(a.Union(b), (Interval{0, 20}));
  Interval disjoint{30, 40};
  EXPECT_TRUE(a.Intersect(disjoint).empty());
  EXPECT_FALSE(Interval::Top().empty());
  EXPECT_TRUE(Interval::Empty().empty());
  EXPECT_EQ(FormatInterval(Interval::Empty()), "empty");
}

TEST(IntervalTest, ShiftClampsAtTheSentinels) {
  // A bound pushed past int64 clamps to +-kInf instead of wrapping.
  Interval near_top{Dbm::kInf - 5, Dbm::kInf - 5};
  Interval shifted = near_top.Shift(100);
  EXPECT_GE(shifted.hi, Dbm::kInf);
  Interval top = Interval::Top().Shift(-7);
  EXPECT_TRUE(top.top());
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
  ASSERT_TRUE(cert.hull.count("t"));
  EXPECT_EQ(cert.hull.at("t").lo, 3);  // T >= 3 constraint.
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

TEST(AbsintTest, ComparisonsNarrowTheHull) {
  Database db = SmallDb();
  QueryPtr q = Parse("Wide(t) AND t >= 10 AND t <= 20");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  ASSERT_TRUE(cert.hull.count("t"));
  EXPECT_EQ(cert.hull.at("t"), (Interval{10, 20}));
  EXPECT_FALSE(cert.HullRefuted());
}

TEST(AbsintTest, ContradictoryComparisonsRefuteTheHull) {
  Database db = SmallDb();
  QueryPtr q = Parse("Wide(t) AND t > 200");
  AbstractInterpreter interp(db, SortsFor(db, q));
  const Certificate& cert = interp.Interpret(q);
  // Stored hull is [0, 100]; t > 200 empties the intersection.
  EXPECT_TRUE(cert.HullRefuted());
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
  EXPECT_EQ(joined.hull, whole.hull);
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
  cert.hull["t"] = Interval::Empty();
  EXPECT_EQ(FormatCertificate(cert),
            "cert_rows=unbounded, cert_lcm=6, cert_empty=set");
}

}  // namespace
}  // namespace analysis
}  // namespace itdb
