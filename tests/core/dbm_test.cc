#include "core/dbm.h"

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace itdb {
namespace {

TEST(AtomicConstraintTest, Negation) {
  // not(X0 - X1 <= 3)  ==  X1 - X0 <= -4.
  AtomicConstraint a{0, 1, 3};
  AtomicConstraint n = a.Negated();
  EXPECT_EQ(n.lhs, 1);
  EXPECT_EQ(n.rhs, 0);
  EXPECT_EQ(n.bound, -4);
  // Double negation is the strict complement boundary again.
  AtomicConstraint nn = n.Negated();
  EXPECT_EQ(nn.lhs, 0);
  EXPECT_EQ(nn.rhs, 1);
  EXPECT_EQ(nn.bound, 3);
}

TEST(AtomicConstraintTest, ToString) {
  EXPECT_EQ((AtomicConstraint{0, 1, 3}.ToString()), "X0 - X1 <= 3");
  EXPECT_EQ((AtomicConstraint{0, kZeroVar, 3}.ToString()), "X0 <= 3");
  EXPECT_EQ((AtomicConstraint{kZeroVar, 1, -3}.ToString()), "X1 >= 3");
}

TEST(DbmTest, UnconstrainedIsFeasible) {
  Dbm d(3);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({100, -100, 0}));
}

TEST(DbmTest, SimpleChainIsFeasible) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -1);  // X0 <= X1 - 1
  d.AddUpperBound(1, 10);
  d.AddLowerBound(0, 5);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({5, 10}));
  EXPECT_FALSE(d.IsSatisfiedBy({10, 10}));
  EXPECT_FALSE(d.IsSatisfiedBy({4, 10}));
}

TEST(DbmTest, NegativeCycleIsInfeasible) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -1);  // X0 < X1
  d.AddDifferenceUpperBound(1, 0, -1);  // X1 < X0
  ASSERT_TRUE(d.Close().ok());
  EXPECT_FALSE(d.feasible());
}

TEST(DbmTest, BoundsInfeasible) {
  Dbm d(1);
  d.AddUpperBound(0, 3);
  d.AddLowerBound(0, 4);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_FALSE(d.feasible());
}

TEST(DbmTest, EqualityPropagatesThroughClosure) {
  Dbm d(3);
  d.AddDifferenceEquality(0, 1, 2);  // X0 = X1 + 2
  d.AddDifferenceEquality(1, 2, 3);  // X1 = X2 + 3
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  // Derived: X0 = X2 + 5.
  EXPECT_EQ(d.bound_node(1, 3), 5);
  EXPECT_EQ(d.bound_node(3, 1), -5);
}

TEST(DbmTest, ClosureTightensTransitively) {
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, 2);
  d.AddDifferenceUpperBound(1, 2, 3);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.bound_node(1, 3), 5);  // X0 - X2 <= 5 derived.
}

TEST(DbmTest, EliminateVariableKeepsProjection) {
  // X0 <= X1 - 1, X1 <= X2 - 1  =>  after eliminating X1: X0 <= X2 - 2.
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, -1);
  d.AddDifferenceUpperBound(1, 2, -1);
  ASSERT_TRUE(d.Close().ok());
  Dbm p = d.EliminateVariable(1);
  EXPECT_EQ(p.num_vars(), 2);
  EXPECT_TRUE(p.feasible());
  // In the reduced system the old X2 is now variable 1.
  EXPECT_EQ(p.bound_node(1, 2), -2);
}

TEST(DbmTest, EliminationDropsUnrelatedConstraintsCorrectly) {
  Dbm d(2);
  d.AddUpperBound(0, 7);
  d.AddEquality(1, 3);
  ASSERT_TRUE(d.Close().ok());
  Dbm p = d.EliminateVariable(1);
  EXPECT_EQ(p.num_vars(), 1);
  EXPECT_EQ(p.bound_node(1, 0), 7);
  EXPECT_EQ(p.bound_node(0, 1), Dbm::kInf);
}

TEST(DbmTest, AppendVariables) {
  Dbm d(1);
  d.AddEquality(0, 5);
  Dbm e = d.AppendVariables(2);
  EXPECT_EQ(e.num_vars(), 3);
  ASSERT_TRUE(e.Close().ok());
  EXPECT_TRUE(e.feasible());
  EXPECT_TRUE(e.IsSatisfiedBy({5, 123, -9}));
  EXPECT_FALSE(e.IsSatisfiedBy({4, 0, 0}));
}

TEST(DbmTest, MapVariables) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -2);  // X0 <= X1 - 2
  // Map old 0 -> new 2, old 1 -> new 0, in a 3-var system.
  Dbm e = d.MapVariables({2, 0}, 3);
  ASSERT_TRUE(e.Close().ok());
  EXPECT_TRUE(e.IsSatisfiedBy({10, 999, 8}));   // X2 <= X0 - 2
  EXPECT_FALSE(e.IsSatisfiedBy({10, 999, 9}));
}

TEST(DbmTest, Conjoin) {
  Dbm a(1);
  a.AddUpperBound(0, 10);
  Dbm b(1);
  b.AddLowerBound(0, 5);
  Dbm c = Dbm::Conjoin(a, b);
  ASSERT_TRUE(c.Close().ok());
  EXPECT_TRUE(c.IsSatisfiedBy({7}));
  EXPECT_FALSE(c.IsSatisfiedBy({11}));
  EXPECT_FALSE(c.IsSatisfiedBy({4}));
}

TEST(DbmTest, ImpliesBasics) {
  Dbm narrow(1);
  narrow.AddUpperBound(0, 5);
  narrow.AddLowerBound(0, 0);
  ASSERT_TRUE(narrow.Close().ok());
  Dbm wide(1);
  wide.AddUpperBound(0, 10);
  EXPECT_TRUE(narrow.Implies(wide));
  Dbm other(1);
  other.AddLowerBound(0, 3);
  EXPECT_FALSE(narrow.Implies(other));
}

TEST(DbmTest, MinimalAtomicsDropRedundant) {
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, 1);
  d.AddDifferenceUpperBound(1, 2, 1);
  d.AddDifferenceUpperBound(0, 2, 5);  // Implied by the two above (<= 2).
  ASSERT_TRUE(d.Close().ok());
  std::vector<AtomicConstraint> min = d.MinimalAtomics();
  // Reconstructed system must be equivalent to the closure.
  Dbm rebuilt(3);
  for (const AtomicConstraint& a : min) rebuilt.AddAtomic(a);
  ASSERT_TRUE(rebuilt.Close().ok());
  EXPECT_TRUE(rebuilt == d);
  // And it must not contain the slack X0 - X2 bound as a separate atom
  // beyond the implied value.
  EXPECT_LE(min.size(), 2u);
}

TEST(DbmTest, MinimalAtomicsHandleEqualities) {
  Dbm d(2);
  d.AddDifferenceEquality(0, 1, 0);  // X0 == X1
  d.AddEquality(0, 4);               // X0 == 4  =>  X1 == 4 too.
  ASSERT_TRUE(d.Close().ok());
  std::vector<AtomicConstraint> min = d.MinimalAtomics();
  Dbm rebuilt(2);
  for (const AtomicConstraint& a : min) rebuilt.AddAtomic(a);
  ASSERT_TRUE(rebuilt.Close().ok());
  EXPECT_TRUE(rebuilt == d);
}

TEST(DbmTest, PaperReductionExample) {
  // Appendix A footnote: X1 <= X2 + 4 && X1 <= X2 - 5  ==  X1 <= X2 - 5.
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, 4);
  d.AddDifferenceUpperBound(0, 1, -5);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.bound_node(1, 2), -5);
  std::vector<AtomicConstraint> min = d.MinimalAtomics();
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(min[0], (AtomicConstraint{0, 1, -5}));
}

TEST(DbmTest, OverflowDetected) {
  Dbm d(2);
  constexpr std::int64_t kHuge = std::int64_t{1} << 61;
  d.AddDifferenceUpperBound(0, 1, kHuge - 1);
  d.AddDifferenceUpperBound(1, 0, kHuge - 1);
  d.AddUpperBound(0, kHuge - 1);
  Status s = d.Close();
  // Either closure succeeds within range or reports overflow; bounds at the
  // limit must not wrap silently.
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kOverflow);
  }
}

TEST(DbmTest, ZeroVariableSystem) {
  Dbm d(0);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({}));
}

// A ground contradiction lives in the matrix, so copies, conjunctions,
// appended and mapped matrices, and a rebuild from ToAtomics all keep it.
TEST(DbmTest, GroundContradictionSurvivesEveryDerivedMatrix) {
  for (int vars : {0, 2}) {
    Dbm d(vars);
    d.AddAtomic({kZeroVar, kZeroVar, 0});  // 0 <= 0: vacuous.
    EXPECT_EQ(d, Dbm(vars));
    d.AddAtomic({kZeroVar, kZeroVar, -1});  // 0 <= -1.
    ASSERT_TRUE(d.Close().ok());
    EXPECT_FALSE(d.feasible()) << vars;
    EXPECT_FALSE(d.IsSatisfiedBy(std::vector<std::int64_t>(
        static_cast<std::size_t>(vars), 0)));
    EXPECT_NE(d, Dbm(vars));
    std::vector<int> shift;
    for (int i = 0; i < vars; ++i) shift.push_back(i + 1);
    Dbm rebuilt(vars);
    for (const AtomicConstraint& a : d.ToAtomics()) rebuilt.AddAtomic(a);
    for (Dbm derived :
         {Dbm::Conjoin(d, Dbm(vars)), Dbm::Conjoin(Dbm(vars), d),
          d.AppendVariables(1), d.MapVariables(shift, vars + 1), rebuilt}) {
      ASSERT_TRUE(derived.Close().ok()) << vars;
      EXPECT_FALSE(derived.feasible()) << vars;
    }
  }
}

// ---------------------------------------------------------------------------
// TightenAndClose: the O(n^2) incremental closure must agree with
// AddAtomic + Close on every outcome, and must leave the matrix untouched
// when it punts (kFallbackNeeded).

TEST(TightenAndCloseTest, AgreesWithFullClosureOnRandomSystems) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::int64_t> bound_pick(-20, 20);
  std::uniform_int_distribution<int> var_pick(0, 2);
  for (int trial = 0; trial < 200; ++trial) {
    Dbm d(3);
    for (int c = 0; c < 3; ++c) {
      int i = var_pick(rng);
      int j = var_pick(rng);
      if (i != j) d.AddDifferenceUpperBound(i, j, bound_pick(rng));
      d.AddUpperBound(var_pick(rng), bound_pick(rng));
    }
    if (!d.Close().ok() || !d.feasible()) continue;
    AtomicConstraint extra{var_pick(rng), var_pick(rng), bound_pick(rng)};
    Dbm incremental = d;
    Dbm::TightenResult tr = incremental.TightenAndClose(extra);
    Dbm naive = d;
    naive.AddAtomic(extra);
    Status s = naive.Close();
    ASSERT_TRUE(s.ok()) << "trial " << trial;  // Bounds are tiny.
    switch (tr) {
      case Dbm::TightenResult::kClosed:
        EXPECT_TRUE(naive.feasible()) << "trial " << trial;
        EXPECT_EQ(incremental, naive) << "trial " << trial;
        break;
      case Dbm::TightenResult::kInfeasible:
        EXPECT_FALSE(naive.feasible()) << "trial " << trial;
        EXPECT_FALSE(incremental.feasible()) << "trial " << trial;
        break;
      case Dbm::TightenResult::kFallbackNeeded:
        // Only degenerate i == i contradictions can punt at these magnitudes.
        EXPECT_EQ(extra.lhs, extra.rhs) << "trial " << trial;
        break;
    }
  }
}

TEST(TightenAndCloseTest, VacuousAndContradictorySelfEdges) {
  Dbm d(2);
  d.AddUpperBound(0, 5);
  ASSERT_TRUE(d.Close().ok());
  Dbm copy = d;
  // x0 - x0 <= 3 is vacuous: no change, still closed.
  EXPECT_EQ(copy.TightenAndClose({0, 0, 3}), Dbm::TightenResult::kClosed);
  EXPECT_EQ(copy, d);
  // x0 - x0 <= -1 is the AddAtomic contradiction encoding: punt untouched.
  EXPECT_EQ(copy.TightenAndClose({0, 0, -1}),
            Dbm::TightenResult::kFallbackNeeded);
  EXPECT_EQ(copy, d);
}

TEST(TightenAndCloseTest, FallbackOnOverflowAdjacentBoundsLeavesMatrixAlone) {
  // An improving path through bounds near the overflow guard: the
  // incremental step must refuse (the naive closure's overflow check is
  // global) and must not leave a half-updated matrix behind.
  const std::int64_t kHuge = (std::int64_t{1} << 61) - 1;
  Dbm d(2);
  d.AddUpperBound(0, kHuge);
  ASSERT_TRUE(d.Close().ok());
  ASSERT_TRUE(d.feasible());
  Dbm copy = d;
  // x1 - x0 <= kHuge makes the closure derive x1 <= 2 * kHuge > kBoundLimit.
  EXPECT_EQ(copy.TightenAndClose({1, 0, kHuge}),
            Dbm::TightenResult::kFallbackNeeded);
  EXPECT_EQ(copy, d);
  Dbm naive = d;
  naive.AddAtomic({1, 0, kHuge});
  EXPECT_FALSE(naive.Close().ok());  // The full path overflows too.
}

TEST(TightenAndCloseTest, DetectsInfeasibilityIncrementally) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -5);  // x0 - x1 <= -5.
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.TightenAndClose({1, 0, 4}),  // x1 - x0 <= 4: cycle -1.
            Dbm::TightenResult::kInfeasible);
  EXPECT_FALSE(d.feasible());
}

TEST(AppendVariablesClosedTest, StaysClosedAndMatchesAppendPlusClose) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, 3);
  d.AddLowerBound(0, -7);
  ASSERT_TRUE(d.Close().ok());
  Dbm fast = d.AppendVariablesClosed(2);
  Dbm naive = d.AppendVariables(2);
  ASSERT_TRUE(naive.Close().ok());
  EXPECT_TRUE(naive.feasible());
  EXPECT_EQ(fast, naive);
}

// Property sweep: closure preserves the solution set on a grid.
class DbmClosurePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(DbmClosurePropertyTest, ClosurePreservesSolutions) {
  auto [a, b, c] = GetParam();
  Dbm raw(2);
  raw.AddDifferenceUpperBound(0, 1, a);
  raw.AddUpperBound(0, b);
  raw.AddLowerBound(1, c);
  Dbm closed = raw;
  ASSERT_TRUE(closed.Close().ok());
  for (std::int64_t x = -6; x <= 6; ++x) {
    for (std::int64_t y = -6; y <= 6; ++y) {
      EXPECT_EQ(raw.IsSatisfiedBy({x, y}), closed.IsSatisfiedBy({x, y}))
          << "x=" << x << " y=" << y << " a=" << a << " b=" << b << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbmClosurePropertyTest,
                         ::testing::Combine(::testing::Values(-3, 0, 2, 5),
                                            ::testing::Values(-4, 0, 3),
                                            ::testing::Values(-5, 0, 2)));

}  // namespace
}  // namespace itdb
