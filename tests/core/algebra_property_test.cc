// Property tests: every generalized-algebra operation must agree with plain
// set semantics, using the finite baseline as the oracle.
//
// For window-stable operations (union, intersection, subtraction, selection,
// cross product, join, complement-in-window) we check exact equality of
// materializations.  For projection, whose witnesses may lie outside the
// observation window, we enumerate the input on a wider window and compare
// inside the narrow one.

#include <cstdint>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "core/algebra.h"
#include "core/normalize.h"
#include "finite/finite_relation.h"

namespace itdb {
namespace {

using testing_util::MakeRandomRelation;
using testing_util::RandomRelationConfig;

constexpr std::int64_t kWindow = 12;

FiniteRelation Mat(const GeneralizedRelation& r,
                   std::int64_t window = kWindow) {
  return FiniteRelation::Materialize(r, -window, window);
}

class BinaryOpPropertyTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  GeneralizedRelation A() {
    RandomRelationConfig cfg;
    return MakeRandomRelation(GetParam() * 2 + 1, cfg);
  }
  GeneralizedRelation B() {
    RandomRelationConfig cfg;
    return MakeRandomRelation(GetParam() * 2 + 2, cfg);
  }
};

TEST_P(BinaryOpPropertyTest, UnionMatchesSetSemantics) {
  GeneralizedRelation a = A(), b = B();
  Result<GeneralizedRelation> u = Union(a, b);
  ASSERT_TRUE(u.ok()) << u.status();
  Result<FiniteRelation> expect = FiniteRelation::Union(Mat(a), Mat(b));
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(u.value()).rows(), expect.value().rows());
}

TEST_P(BinaryOpPropertyTest, IntersectMatchesSetSemantics) {
  GeneralizedRelation a = A(), b = B();
  Result<GeneralizedRelation> i = Intersect(a, b);
  ASSERT_TRUE(i.ok()) << i.status();
  Result<FiniteRelation> expect = FiniteRelation::Intersect(Mat(a), Mat(b));
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(i.value()).rows(), expect.value().rows());
}

TEST_P(BinaryOpPropertyTest, SubtractMatchesSetSemantics) {
  GeneralizedRelation a = A(), b = B();
  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok()) << d.status();
  Result<FiniteRelation> expect = FiniteRelation::Subtract(Mat(a), Mat(b));
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(d.value()).rows(), expect.value().rows())
      << "a:\n" << a.ToString() << "b:\n" << b.ToString();
}

TEST_P(BinaryOpPropertyTest, SubtractThenAddBackCoversOriginal) {
  // (a - b) U (a ^ b) == a.
  GeneralizedRelation a = A(), b = B();
  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok());
  Result<GeneralizedRelation> i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  Result<GeneralizedRelation> u = Union(d.value(), i.value());
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(Mat(u.value()).rows(), Mat(a).rows());
}

TEST_P(BinaryOpPropertyTest, ComplementMatchesSetSemantics) {
  GeneralizedRelation a = A();
  AlgebraOptions options;
  Result<GeneralizedRelation> c = Complement(a, options);
  ASSERT_TRUE(c.ok()) << c.status();
  Result<FiniteRelation> expect = Mat(a).Complement(-kWindow, kWindow, {});
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(c.value()).rows(), expect.value().rows())
      << "a:\n" << a.ToString();
}

TEST_P(BinaryOpPropertyTest, ComplementIsDisjointAndCovering) {
  GeneralizedRelation a = A();
  Result<GeneralizedRelation> c = Complement(a);
  ASSERT_TRUE(c.ok());
  Result<GeneralizedRelation> overlap = Intersect(a, c.value());
  ASSERT_TRUE(overlap.ok());
  EXPECT_TRUE(IsEmpty(overlap.value()).value());
  Result<GeneralizedRelation> cover = Union(a, c.value());
  ASSERT_TRUE(cover.ok());
  FiniteRelation all = Mat(cover.value());
  EXPECT_EQ(all.size(), (2 * kWindow + 1) * (2 * kWindow + 1));
}

TEST_P(BinaryOpPropertyTest, SelectionMatchesSetSemantics) {
  GeneralizedRelation a = A();
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    TemporalCondition cond{0, 1, op, static_cast<std::int64_t>(GetParam() % 5) - 2};
    Result<GeneralizedRelation> s = SelectTemporal(a, cond);
    ASSERT_TRUE(s.ok()) << s.status();
    Result<FiniteRelation> expect = Mat(a).SelectTemporal(cond);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(Mat(s.value()).rows(), expect.value().rows());
  }
}

TEST_P(BinaryOpPropertyTest, ProjectionMatchesSetSemanticsOnInnerWindow) {
  GeneralizedRelation a = A();
  Result<GeneralizedRelation> p = Project(a, {"T1"});
  ASSERT_TRUE(p.ok()) << p.status();
  // Witness margin: bounds <= 6, offsets <= 8, periods <= 6 -> any projected
  // point in [-12, 12] has a witness within +-40.
  std::set<std::int64_t> expect;
  for (const ConcreteRow& row : a.Enumerate(-40, 40)) {
    if (row.temporal[0] >= -kWindow && row.temporal[0] <= kWindow) {
      expect.insert(row.temporal[0]);
    }
  }
  std::set<std::int64_t> got;
  for (const ConcreteRow& row : p.value().Enumerate(-kWindow, kWindow)) {
    got.insert(row.temporal[0]);
  }
  EXPECT_EQ(got, expect) << "a:\n" << a.ToString();
}

TEST_P(BinaryOpPropertyTest, ProjectionPartialAndFullAgree) {
  GeneralizedRelation a = A();
  AlgebraOptions partial;
  partial.partial_normalization = true;
  AlgebraOptions full;
  full.partial_normalization = false;
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{{"T1"}, {"T2"}, {"T2", "T1"}}) {
    Result<GeneralizedRelation> p = Project(a, attrs, partial);
    Result<GeneralizedRelation> f = Project(a, attrs, full);
    ASSERT_TRUE(p.ok()) << p.status();
    ASSERT_TRUE(f.ok()) << f.status();
    EXPECT_EQ(Mat(p.value()).rows(), Mat(f.value()).rows())
        << "a:\n" << a.ToString();
  }
}

TEST_P(BinaryOpPropertyTest, JoinMatchesSetSemantics) {
  RandomRelationConfig cfg;
  GeneralizedRelation a0 = MakeRandomRelation(GetParam() * 2 + 1, cfg);
  GeneralizedRelation b0 = MakeRandomRelation(GetParam() * 2 + 2, cfg);
  // a: (T, A); b: (T, B) -- join on shared "T".
  Result<GeneralizedRelation> a = Rename(a0, {{"T1", "T"}, {"T2", "A"}});
  ASSERT_TRUE(a.ok());
  Result<GeneralizedRelation> b = Rename(b0, {{"T1", "T"}, {"T2", "B"}});
  ASSERT_TRUE(b.ok());
  Result<GeneralizedRelation> j = Join(a.value(), b.value());
  ASSERT_TRUE(j.ok()) << j.status();
  Result<FiniteRelation> expect =
      FiniteRelation::Join(Mat(a.value()), Mat(b.value()));
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(j.value()).rows(), expect.value().rows());
}

TEST_P(BinaryOpPropertyTest, CrossProductMatchesSetSemantics) {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 1;
  GeneralizedRelation a0 = MakeRandomRelation(GetParam() * 2 + 1, cfg);
  GeneralizedRelation b0 = MakeRandomRelation(GetParam() * 2 + 2, cfg);
  Result<GeneralizedRelation> a = Rename(a0, {{"T1", "A"}});
  ASSERT_TRUE(a.ok());
  Result<GeneralizedRelation> b = Rename(b0, {{"T1", "B"}});
  ASSERT_TRUE(b.ok());
  Result<GeneralizedRelation> x = CrossProduct(a.value(), b.value());
  ASSERT_TRUE(x.ok()) << x.status();
  Result<FiniteRelation> expect =
      FiniteRelation::CrossProduct(Mat(a.value()), Mat(b.value()));
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(x.value()).rows(), expect.value().rows());
}

TEST_P(BinaryOpPropertyTest, EmptinessAgreesWithEnumerationOnWideWindow) {
  GeneralizedRelation a = A();
  Result<bool> empty = IsEmpty(a);
  ASSERT_TRUE(empty.ok());
  bool enumerated_empty = a.Enumerate(-60, 60).empty();
  // IsEmpty is exact; an empty wide enumeration of these small-period
  // relations implies true emptiness and vice versa.
  EXPECT_EQ(empty.value(), enumerated_empty) << a.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryOpPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{40}));

// Pinned and free columns: the generator rarely produces an equality
// between two columns or a period-1 column, which are exactly the columns
// Project and TupleIsEmpty eliminate without normalizing.  This axis injects
// both into random three-column relations and checks the default kernel
// against the verbatim Section 3.4 reference (partial_normalization = false)
// and against Theorem 3.5's normalization-based emptiness test.
class PinnedFreePropertyTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  GeneralizedRelation Injected() {
    RandomRelationConfig cfg;
    cfg.temporal_arity = 3;
    GeneralizedRelation base = MakeRandomRelation(GetParam() + 500, cfg);
    std::mt19937 rng(GetParam());
    auto pick = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    GeneralizedRelation out(base.schema());
    for (const GeneralizedTuple& t : base.tuples()) {
      std::vector<Lrp> lrps = t.temporal();
      const int mode = pick(0, 3);  // 0: pin, 1: free, 2: both, 3: two pins.
      if (mode == 1 || mode == 2) {
        lrps[static_cast<std::size_t>(pick(0, 2))] = Lrp::Make(0, 1);
      }
      GeneralizedTuple injected(std::move(lrps), t.data());
      injected.set_constraints(t.constraints());
      const int pins = mode == 3 ? 2 : (mode == 1 ? 0 : 1);
      for (int k = 0; k < pins; ++k) {
        const int i = pick(0, 2);
        const int j = (i + pick(1, 2)) % 3;
        injected.mutable_constraints().AddDifferenceEquality(i, j, pick(-4, 4));
      }
      EXPECT_TRUE(out.AddTuple(std::move(injected)).ok());
    }
    return out;
  }
};

TEST_P(PinnedFreePropertyTest, ProjectionMatchesTheReference) {
  GeneralizedRelation a = Injected();
  AlgebraOptions full;
  full.partial_normalization = false;
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{{"T1"},
                                             {"T2"},
                                             {"T3"},
                                             {"T1", "T3"},
                                             {"T3", "T2"},
                                             {"T2", "T3", "T1"},
                                             {}}) {
    Result<GeneralizedRelation> exact = Project(a, attrs);
    Result<GeneralizedRelation> reference = Project(a, attrs, full);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(Mat(exact.value()).rows(), Mat(reference.value()).rows())
        << "a:\n" << a.ToString();
  }
}

TEST_P(PinnedFreePropertyTest, EmptinessMatchesTheReference) {
  GeneralizedRelation a = Injected();
  for (const GeneralizedTuple& t : a.tuples()) {
    Result<bool> empty = TupleIsEmpty(t);
    Result<std::vector<GeneralizedTuple>> normal = NormalizeTuple(t);
    ASSERT_TRUE(empty.ok()) << empty.status();
    ASSERT_TRUE(normal.ok()) << normal.status();
    EXPECT_EQ(empty.value(), normal.value().empty()) << t.ToString();
    // A point in the window is a witness of nonemptiness.
    if (!t.EnumerateTemporal(-kWindow, kWindow).empty()) {
      EXPECT_FALSE(empty.value()) << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinnedFreePropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{60}));

// Relations with data columns exercise the data paths of the same ops.
class DataOpPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DataOpPropertyTest, OpsRespectDataColumns) {
  RandomRelationConfig cfg;
  cfg.data_values = {Value("a"), Value("b")};
  GeneralizedRelation a = MakeRandomRelation(GetParam() * 2 + 1, cfg);
  GeneralizedRelation b = MakeRandomRelation(GetParam() * 2 + 2, cfg);
  Result<GeneralizedRelation> i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  Result<FiniteRelation> fi = FiniteRelation::Intersect(Mat(a), Mat(b));
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(Mat(i.value()).rows(), fi.value().rows());

  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok());
  Result<FiniteRelation> fd = FiniteRelation::Subtract(Mat(a), Mat(b));
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(Mat(d.value()).rows(), fd.value().rows());

  Result<GeneralizedRelation> s = SelectData(a, 0, CmpOp::kEq, Value("a"));
  ASSERT_TRUE(s.ok());
  Result<FiniteRelation> fs = Mat(a).SelectData(0, CmpOp::kEq, Value("a"));
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(Mat(s.value()).rows(), fs.value().rows());
}

TEST_P(DataOpPropertyTest, ComplementWithDomainsMatchesSetSemantics) {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 1;
  cfg.data_values = {Value("a"), Value("b")};
  GeneralizedRelation a = MakeRandomRelation(GetParam() + 100, cfg);
  std::vector<std::vector<Value>> domains = {{Value("a"), Value("b")}};
  Result<GeneralizedRelation> c = ComplementWithDataDomains(a, domains);
  ASSERT_TRUE(c.ok()) << c.status();
  Result<FiniteRelation> expect = Mat(a).Complement(-kWindow, kWindow, domains);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Mat(c.value()).rows(), expect.value().rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataOpPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{20}));

}  // namespace
}  // namespace itdb
