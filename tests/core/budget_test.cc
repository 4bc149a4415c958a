// Failure-injection tests: every resource budget must surface
// kResourceExhausted (never crash, never silently truncate), and overflow
// paths must surface kOverflow.

#include <gtest/gtest.h>

#include <vector>

#include "core/algebra.h"
#include "core/coalesce.h"
#include "core/index.h"
#include "core/normalize.h"
#include "util/thread_pool.h"

namespace itdb {
namespace {

GeneralizedRelation Unary(std::initializer_list<Lrp> lrps) {
  GeneralizedRelation r(Schema::Temporal(1));
  for (const Lrp& l : lrps) {
    EXPECT_TRUE(r.AddTuple(GeneralizedTuple({l})).ok());
  }
  return r;
}

TEST(BudgetTest, IntersectTupleBudget) {
  GeneralizedRelation a = Unary({Lrp::Make(0, 2), Lrp::Make(1, 2)});
  AlgebraOptions options;
  options.max_tuples = 3;  // 2 x 2 pairings exceed it.
  Result<GeneralizedRelation> r = Intersect(a, a, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, CrossProductTupleBudget) {
  GeneralizedRelation a(Schema({"A"}, {}, {}));
  GeneralizedRelation b(Schema({"B"}, {}, {}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.AddTuple(GeneralizedTuple({Lrp::Make(i, 5)})).ok());
    ASSERT_TRUE(b.AddTuple(GeneralizedTuple({Lrp::Make(i, 5)})).ok());
  }
  AlgebraOptions options;
  options.max_tuples = 8;  // 9 > 8.
  Result<GeneralizedRelation> r = CrossProduct(a, b, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, SubtractionChainBudget) {
  // Each subtracted singleton splits tuples; a tiny budget trips quickly.
  GeneralizedRelation a = Unary({Lrp::Make(0, 1)});
  GeneralizedRelation b =
      Unary({Lrp::Singleton(0), Lrp::Singleton(10), Lrp::Singleton(20)});
  AlgebraOptions options;
  options.max_tuples = 2;
  Result<GeneralizedRelation> r = Subtract(a, b, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, NormalizationSplitBudget) {
  GeneralizedTuple t({Lrp::Make(0, 4), Lrp::Make(0, 9), Lrp::Make(0, 25)});
  NormalizeOptions options;
  options.max_split_product = 100;  // (900/4)*(900/9)*(900/25) >> 100.
  Result<std::vector<GeneralizedTuple>> r = NormalizeTuple(t, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, ComplementUniverseBudget) {
  GeneralizedRelation r = Unary({Lrp::Make(0, 1000)});
  AlgebraOptions options;
  options.max_split_product = 100;
  Result<GeneralizedRelation> c = Complement(r, options);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

// A statement's deadline reaches the kernels' loops: under an expired
// token each sweep fails with kResourceExhausted instead of returning what
// it swept so far.  Without the token the same calls succeed.
TEST(BudgetTest, SequentialSweepFailsOnExpiredDeadline) {
  const GeneralizedTuple t({Lrp::Make(0, 4), Lrp::Make(1, 6)});
  const GeneralizedRelation a = Unary({Lrp::Make(0, 4), Lrp::Make(1, 6)});
  const GeneralizedRelation b = Unary({Lrp::Make(0, 3)});
  auto sweeps = [&]() -> std::vector<Status> {
    return {NormalizeTupleToPeriod(t, 12).status(),
            Complement(a).status(),
            Join(a, b).status(),
            Subtract(a, b).status(),
            CoalesceResidues(a).status()};
  };
  for (const Status& s : sweeps()) EXPECT_TRUE(s.ok()) << s;
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  CancellationScope scope(&token);
  for (const Status& s : sweeps()) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
    EXPECT_EQ(s.message(), "deadline exceeded") << s;
  }
}

TEST(BudgetTest, ComplementDnfBudget) {
  // Many constrained tuples on one residue: the incremental DNF grows and
  // hits max_tuples.
  GeneralizedRelation r(Schema::Temporal(2));
  for (int i = 0; i < 12; ++i) {
    GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(0, 1)});
    t.mutable_constraints().AddDifferenceUpperBound(0, 1, i);
    t.mutable_constraints().AddUpperBound(0, 100 - i);
    t.mutable_constraints().AddLowerBound(1, i - 100);
    ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  }
  AlgebraOptions options;
  options.max_tuples = 2;
  Result<GeneralizedRelation> c = Complement(r, options);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, LcmOverflowSurfacesAsOverflow) {
  // Two huge coprime periods: the common period overflows int64.
  constexpr std::int64_t kBig = (std::int64_t{1} << 31) - 1;   // Prime.
  constexpr std::int64_t kBig2 = std::int64_t{1} << 33;
  GeneralizedTuple t({Lrp::Make(0, kBig), Lrp::Make(0, kBig2)});
  Result<std::int64_t> k = CommonPeriod(t);
  // lcm = kBig * kBig2 ~ 2^64: must overflow, not wrap.
  ASSERT_FALSE(k.ok());
  EXPECT_EQ(k.status().code(), StatusCode::kOverflow);
}

// Bounds near Dbm::kBoundLimit.  Where the O(n^2) incremental closure
// punts (kFallbackNeeded) or a tuple's own closure overflows, the operators
// close in full and report that closure's kOverflow.
constexpr std::int64_t kBig = 3 * (Dbm::kBoundLimit / 4);

// One [0+n, 0+n] tuple over two temporal columns with the given atomics.
GeneralizedTuple EdgePair(const std::vector<AtomicConstraint>& atomics) {
  GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(0, 1)});
  for (const AtomicConstraint& a : atomics) {
    t.mutable_constraints().AddAtomic(a);
  }
  return t;
}

TEST(BudgetTest, ComplementDnfOverflowSurfacesAsOverflow) {
  // Each tuple closes in range, but the conjunction of their negations,
  // X1 - X0 <= -kBig - 1 and -X1 <= -kBig - 1, derives X0 >= 2 kBig + 2.
  GeneralizedRelation r(Schema::Temporal(2));
  ASSERT_TRUE(r.AddTuple(EdgePair({{0, 1, kBig}})).ok());
  ASSERT_TRUE(r.AddTuple(EdgePair({{1, kZeroVar, kBig}})).ok());
  KernelCounters counters;
  AlgebraOptions options;
  options.counters = &counters;
  Result<GeneralizedRelation> c = Complement(r, options);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOverflow) << c.status();
  EXPECT_EQ(counters.closures_full.load(), 1);
}

TEST(BudgetTest, SelectionOverflowSurfacesAsOverflow) {
  KernelCounters counters;
  AlgebraOptions options;
  options.counters = &counters;
  // The tuple closes in range; selecting X1 <= kBig derives X0 <= 2 kBig.
  GeneralizedRelation r(Schema::Temporal(2));
  ASSERT_TRUE(r.AddTuple(EdgePair({{0, 1, kBig}})).ok());
  Result<GeneralizedRelation> s =
      SelectTemporal(r, {1, kZeroVar, CmpOp::kLe, kBig}, options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kOverflow) << s.status();
  EXPECT_EQ(counters.closures_full.load(), 1);
  // The tuple's own closure overflows: every branch of X0 != 0 takes the
  // full route.
  GeneralizedRelation chain(Schema::Temporal(2));
  ASSERT_TRUE(
      chain.AddTuple(EdgePair({{0, 1, kBig}, {1, kZeroVar, kBig}})).ok());
  Result<GeneralizedRelation> t =
      SelectTemporal(chain, {0, kZeroVar, CmpOp::kNe, 0}, options);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kOverflow) << t.status();
}

TEST(BudgetTest, ErrorsCarryOperationNames) {
  GeneralizedRelation a = Unary({Lrp::Make(0, 2), Lrp::Make(1, 2)});
  AlgebraOptions options;
  options.max_tuples = 1;
  Result<GeneralizedRelation> r = Union(a, a, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Union"), std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace itdb
