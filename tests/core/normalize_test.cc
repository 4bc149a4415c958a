#include "core/normalize.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/lrp.h"
#include "core/tuple.h"

namespace itdb {
namespace {

using Point = std::vector<std::int64_t>;

std::set<Point> EnumSet(const GeneralizedTuple& t, std::int64_t lo,
                        std::int64_t hi) {
  std::vector<Point> v = t.EnumerateTemporal(lo, hi);
  return std::set<Point>(v.begin(), v.end());
}

std::set<Point> EnumSetAll(const std::vector<GeneralizedTuple>& ts,
                           std::int64_t lo, std::int64_t hi) {
  std::set<Point> out;
  for (const GeneralizedTuple& t : ts) {
    std::set<Point> s = EnumSet(t, lo, hi);
    out.insert(s.begin(), s.end());
  }
  return out;
}

// The tuple of Figure 2 / Example 3.2:
//   [4n1+3, 8n2+1]  X1 >= X2 && X1 <= X2+5 && X2 >= 2.
GeneralizedTuple Figure2Tuple() {
  GeneralizedTuple t({Lrp::Make(3, 4), Lrp::Make(1, 8)});
  Dbm& c = t.mutable_constraints();
  c.AddDifferenceUpperBound(1, 0, 0);  // X2 - X1 <= 0, i.e. X1 >= X2.
  c.AddDifferenceUpperBound(0, 1, 5);  // X1 <= X2 + 5.
  c.AddLowerBound(1, 2);               // X2 >= 2.
  return t;
}

TEST(IsNormalFormTest, Detection) {
  std::int64_t k = 0;
  GeneralizedTuple mixed({Lrp::Make(3, 4), Lrp::Make(1, 8)});
  EXPECT_FALSE(IsNormalForm(mixed, &k));

  GeneralizedTuple same({Lrp::Make(3, 8), Lrp::Make(1, 8)});
  EXPECT_TRUE(IsNormalForm(same, &k));
  EXPECT_EQ(k, 8);

  GeneralizedTuple with_const({Lrp::Singleton(5), Lrp::Make(1, 8)});
  EXPECT_TRUE(IsNormalForm(with_const, &k));
  EXPECT_EQ(k, 8);

  GeneralizedTuple all_const({Lrp::Singleton(5), Lrp::Singleton(2)});
  EXPECT_TRUE(IsNormalForm(all_const, &k));
  EXPECT_EQ(k, 1);
}

TEST(CommonPeriodTest, LcmOfPeriods) {
  GeneralizedTuple t({Lrp::Make(3, 4), Lrp::Make(1, 6), Lrp::Singleton(0)});
  Result<std::int64_t> k = CommonPeriod(t);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k.value(), 12);

  GeneralizedTuple all_const({Lrp::Singleton(5)});
  EXPECT_EQ(CommonPeriod(all_const).value(), 1);
}

TEST(NormalizeTest, PaperExample32SurvivingTuple) {
  // Normalizing Figure 2's tuple to period 8 splits column 1 into
  // {3+8n, 7+8n}; the paper shows the 7+8n combination is contradictory, so
  // exactly one normal-form tuple survives: [8n+3, 8n+1] with
  // X1 = X2 + 2 && X2 >= 9.
  Result<std::vector<GeneralizedTuple>> r = NormalizeTuple(Figure2Tuple());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  const GeneralizedTuple& t = r.value()[0];
  EXPECT_EQ(t.lrp(0), Lrp::Make(3, 8));
  EXPECT_EQ(t.lrp(1), Lrp::Make(1, 8));
  // Semantics preserved: points are (x2+2, x2) for x2 = 9, 17, 25, ...
  std::set<Point> expect;
  for (std::int64_t x2 = 9; x2 <= 48; x2 += 8) expect.insert({x2 + 2, x2});
  EXPECT_EQ(EnumSet(t, 0, 50), expect);
}

TEST(NormalizeTest, PreservesSemantics) {
  GeneralizedTuple t({Lrp::Make(1, 3), Lrp::Make(0, 2)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 2);
  t.mutable_constraints().AddLowerBound(0, -10);
  t.mutable_constraints().AddUpperBound(1, 10);
  Result<std::vector<GeneralizedTuple>> r = NormalizeTuple(t);
  ASSERT_TRUE(r.ok());
  for (const GeneralizedTuple& nt : r.value()) {
    std::int64_t k = 0;
    EXPECT_TRUE(IsNormalForm(nt, &k));
    EXPECT_EQ(k, 6);
  }
  EXPECT_EQ(EnumSetAll(r.value(), -20, 20), EnumSet(t, -20, 20));
}

TEST(NormalizeTest, ConstantColumnsStayConstant) {
  GeneralizedTuple t({Lrp::Singleton(7), Lrp::Make(0, 3)});
  Result<std::vector<GeneralizedTuple>> r = NormalizeTuple(t);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].lrp(0), Lrp::Singleton(7));
}

TEST(NormalizeTest, ExplicitPeriodSplitsCorrectCount) {
  GeneralizedTuple t({Lrp::Make(0, 2), Lrp::Make(0, 3)});
  Result<std::vector<GeneralizedTuple>> r = NormalizeTupleToPeriod(t, 12);
  ASSERT_TRUE(r.ok());
  // 12/2 * 12/3 = 6 * 4 = 24 combinations, all feasible (no constraints).
  EXPECT_EQ(r.value().size(), 24u);
  EXPECT_EQ(EnumSetAll(r.value(), -15, 15), EnumSet(t, -15, 15));
}

TEST(NormalizeTest, BudgetEnforced) {
  GeneralizedTuple t({Lrp::Make(0, 2), Lrp::Make(0, 3), Lrp::Make(0, 5)});
  NormalizeOptions options;
  options.max_split_product = 10;  // 15 * 10 * 6 = 900 > 10.
  Result<std::vector<GeneralizedTuple>> r = NormalizeTuple(t, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(NormalizeTest, InvalidPeriodRejected) {
  GeneralizedTuple t({Lrp::Make(0, 2)});
  EXPECT_FALSE(NormalizeTupleToPeriod(t, 0).ok());
  EXPECT_FALSE(NormalizeTupleToPeriod(t, 3).ok());  // Not a multiple of 2.
}

TEST(NSpaceTest, RequiresNormalForm) {
  GeneralizedTuple mixed({Lrp::Make(3, 4), Lrp::Make(1, 8)});
  EXPECT_FALSE(NSpaceTuple::Build(mixed).ok());
}

TEST(NSpaceTest, FeasibilityIsLatticeExact) {
  // X1 in 0+8n, X2 in 1+8n with X1 = X2 + 3: real-feasible (e.g. x1=4.0,
  // x2=1.0 -- wait, that IS on the grid of reals) but lattice-infeasible:
  // x1 - x2 === -1 (mod 8), never 3.
  GeneralizedTuple t({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 3);
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  EXPECT_FALSE(ns.value().feasible());
  EXPECT_TRUE(t.EnumerateTemporal(-50, 50).empty());
}

TEST(NSpaceTest, FeasibleWhenResidueMatches) {
  GeneralizedTuple t({Lrp::Make(4, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 3);
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  EXPECT_TRUE(ns.value().feasible());
}

TEST(NSpaceTest, ConstantColumnsFoldIntoBounds) {
  // X1 = 5 (constant), X2 in 0+3n, X2 >= X1  =>  X2 >= 6 on the lattice.
  GeneralizedTuple t({Lrp::Singleton(5), Lrp::Make(0, 3)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 0);  // X1 <= X2.
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  ASSERT_TRUE(ns.value().feasible());
  ASSERT_TRUE(ns.value().EliminateColumn(0).ok());
  Result<GeneralizedTuple> rebuilt = ns.value().Rebuild({1}, {});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().lrp(0), Lrp::Make(0, 3));
  // First admissible lattice point at or above 5 is 6.
  std::set<Point> expect;
  for (std::int64_t x = 6; x <= 30; x += 3) expect.insert({x});
  EXPECT_EQ(EnumSet(rebuilt.value(), -30, 30), expect);
}

TEST(NSpaceTest, ConstantConstantContradictionDetected) {
  GeneralizedTuple t({Lrp::Singleton(5), Lrp::Singleton(3)});
  t.mutable_constraints().AddDifferenceUpperBound(1, 0, -5);  // X2 <= X1 - 5.
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  EXPECT_FALSE(ns.value().feasible());
}

TEST(NSpaceTest, RebuildRoundTripsSemantics) {
  GeneralizedTuple t({Lrp::Make(3, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 4);
  t.mutable_constraints().AddLowerBound(1, -7);
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  Result<GeneralizedTuple> rebuilt = ns.value().Rebuild({0, 1}, {});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(EnumSet(rebuilt.value(), -40, 40), EnumSet(t, -40, 40));
}

TEST(NSpaceTest, RebuildReordersColumns) {
  GeneralizedTuple t({Lrp::Make(3, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, -1);  // X0 < X1.
  Result<NSpaceTuple> ns = NSpaceTuple::Build(t);
  ASSERT_TRUE(ns.ok());
  Result<GeneralizedTuple> swapped = ns.value().Rebuild({1, 0}, {});
  ASSERT_TRUE(swapped.ok());
  // Now column 0 is the old X1, so the constraint flips direction.
  for (const Point& p : swapped.value().EnumerateTemporal(-20, 20)) {
    EXPECT_GT(p[0], p[1]);
  }
  EXPECT_FALSE(swapped.value().EnumerateTemporal(-20, 20).empty());
}

}  // namespace
}  // namespace itdb
