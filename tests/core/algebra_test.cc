#include "core/algebra.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "finite/finite_relation.h"

namespace itdb {
namespace {

GeneralizedRelation Unary(std::initializer_list<Lrp> lrps) {
  GeneralizedRelation r(Schema::Temporal(1));
  for (const Lrp& l : lrps) {
    EXPECT_TRUE(r.AddTuple(GeneralizedTuple({l})).ok());
  }
  return r;
}

std::set<std::int64_t> UnarySet(const GeneralizedRelation& r, std::int64_t lo,
                                std::int64_t hi) {
  std::set<std::int64_t> out;
  for (const ConcreteRow& row : r.Enumerate(lo, hi)) {
    out.insert(row.temporal[0]);
  }
  return out;
}

std::set<std::int64_t> Evens(std::int64_t lo, std::int64_t hi) {
  std::set<std::int64_t> out;
  for (std::int64_t x = lo; x <= hi; ++x) {
    if (((x % 2) + 2) % 2 == 0) out.insert(x);
  }
  return out;
}

TEST(UnionTest, MergesTuples) {
  GeneralizedRelation a = Unary({Lrp::Make(0, 4)});
  GeneralizedRelation b = Unary({Lrp::Make(2, 4)});
  Result<GeneralizedRelation> u = Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().size(), 2);
  EXPECT_EQ(UnarySet(u.value(), -10, 10), Evens(-10, 10));
}

TEST(UnionTest, SchemaMismatchRejected) {
  GeneralizedRelation a = Unary({Lrp::Make(0, 4)});
  GeneralizedRelation b(Schema::Temporal(2));
  EXPECT_FALSE(Union(a, b).ok());
}

TEST(IntersectTest, ResidueIntersection) {
  // (0+2n) ^ (0+3n) == 0+6n.
  GeneralizedRelation a = Unary({Lrp::Make(0, 2)});
  GeneralizedRelation b = Unary({Lrp::Make(0, 3)});
  Result<GeneralizedRelation> i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  ASSERT_EQ(i.value().size(), 1);
  EXPECT_EQ(i.value().tuples()[0].lrp(0), Lrp::Make(0, 6));
}

TEST(SubtractTest, ResidueSubtraction) {
  // (0+2n) - (0+6n) = {2+6n, 4+6n}.
  GeneralizedRelation a = Unary({Lrp::Make(0, 2)});
  GeneralizedRelation b = Unary({Lrp::Make(0, 6)});
  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok());
  std::set<std::int64_t> expect;
  for (std::int64_t x = -30; x <= 30; ++x) {
    if (((x % 2) + 2) % 2 == 0 && ((x % 6) + 6) % 6 != 0) expect.insert(x);
  }
  EXPECT_EQ(UnarySet(d.value(), -30, 30), expect);
}

TEST(SubtractTest, ConstrainedSubtrahendLeavesComplementPiece) {
  // Z - (Z with X >= 5) == X <= 4.
  GeneralizedRelation a = Unary({Lrp::Make(0, 1)});
  GeneralizedRelation b(Schema::Temporal(1));
  GeneralizedTuple t({Lrp::Make(0, 1)});
  t.mutable_constraints().AddLowerBound(0, 5);
  ASSERT_TRUE(b.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok());
  std::set<std::int64_t> expect;
  for (std::int64_t x = -20; x <= 4; ++x) expect.insert(x);
  EXPECT_EQ(UnarySet(d.value(), -20, 20), expect);
}

TEST(SubtractTest, PuncturedPointViaSingleton) {
  // (0+5n) - {10} == 0+5n without 10, via bound-constraint splitting.
  GeneralizedRelation a = Unary({Lrp::Make(0, 5)});
  GeneralizedRelation b = Unary({Lrp::Singleton(10)});
  Result<GeneralizedRelation> d = Subtract(a, b);
  ASSERT_TRUE(d.ok());
  std::set<std::int64_t> expect;
  for (std::int64_t x = -20; x <= 20; x += 5) {
    if (x != 10) expect.insert(x);
  }
  EXPECT_EQ(UnarySet(d.value(), -20, 20), expect);
}

TEST(SubtractTest, SelfSubtractionIsEmpty) {
  GeneralizedRelation a = Unary({Lrp::Make(3, 7)});
  Result<GeneralizedRelation> d = Subtract(a, a);
  ASSERT_TRUE(d.ok());
  Result<bool> empty = IsEmpty(d.value());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value());
}

TEST(ComplementTest, ComplementOfEvens) {
  GeneralizedRelation a = Unary({Lrp::Make(0, 2)});
  Result<GeneralizedRelation> c = Complement(a);
  ASSERT_TRUE(c.ok());
  std::set<std::int64_t> expect;
  for (std::int64_t x = -15; x <= 15; ++x) {
    if (((x % 2) + 2) % 2 == 1) expect.insert(x);
  }
  EXPECT_EQ(UnarySet(c.value(), -15, 15), expect);
}

TEST(ComplementTest, ComplementOfEmptyIsUniverse) {
  GeneralizedRelation a(Schema::Temporal(2));
  Result<GeneralizedRelation> c = Complement(a);
  ASSERT_TRUE(c.ok());
  FiniteRelation f = FiniteRelation::Materialize(c.value(), -3, 3);
  EXPECT_EQ(f.size(), 49);  // Everything.
}

TEST(ComplementTest, DoubleComplementRoundTrips) {
  GeneralizedRelation a(Schema::Temporal(1));
  GeneralizedTuple t({Lrp::Make(1, 3)});
  t.mutable_constraints().AddLowerBound(0, 0);
  ASSERT_TRUE(a.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> c = Complement(a);
  ASSERT_TRUE(c.ok());
  Result<GeneralizedRelation> cc = Complement(c.value());
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(UnarySet(cc.value(), -20, 20), UnarySet(a, -20, 20));
}

TEST(ComplementTest, RejectsDataColumns) {
  Schema schema({"T"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  EXPECT_FALSE(Complement(r).ok());
}

TEST(ComplementTest, WithDataDomains) {
  Schema schema({"T"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  GeneralizedTuple t({Lrp::Make(0, 2)}, {Value("a")});
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  std::vector<std::vector<Value>> domains = {{Value("a"), Value("b")}};
  Result<GeneralizedRelation> c = ComplementWithDataDomains(r, domains);
  ASSERT_TRUE(c.ok());
  // ("a", odd) and ("b", anything) are in the complement.
  EXPECT_TRUE(c.value().Contains({{1}, {Value("a")}}));
  EXPECT_FALSE(c.value().Contains({{0}, {Value("a")}}));
  EXPECT_TRUE(c.value().Contains({{0}, {Value("b")}}));
  EXPECT_TRUE(c.value().Contains({{1}, {Value("b")}}));
}

TEST(ComplementTest, UniverseBudgetEnforced) {
  GeneralizedRelation r(Schema::Temporal(3));
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(0, 101), Lrp::Make(0, 101),
                                           Lrp::Make(0, 101)}))
                  .ok());
  AlgebraOptions options;
  options.max_split_product = 1000;  // 101^3 >> 1000.
  Result<GeneralizedRelation> c = Complement(r, options);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

TEST(SelectTemporalTest, AddsConstraint) {
  GeneralizedRelation r = Unary({Lrp::Make(0, 2)});
  Result<GeneralizedRelation> s =
      SelectTemporal(r, TemporalCondition{0, kZeroVar, CmpOp::kGe, 6});
  ASSERT_TRUE(s.ok());
  std::set<std::int64_t> expect;
  for (std::int64_t x = 6; x <= 20; x += 2) expect.insert(x);
  EXPECT_EQ(UnarySet(s.value(), -20, 20), expect);
}

TEST(SelectTemporalTest, NotEqualSplitsTuples) {
  GeneralizedRelation r(Schema::Temporal(2));
  ASSERT_TRUE(
      r.AddTuple(GeneralizedTuple({Lrp::Make(0, 1), Lrp::Make(0, 1)})).ok());
  Result<GeneralizedRelation> s =
      SelectTemporal(r, TemporalCondition{0, 1, CmpOp::kNe, 0});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().size(), 2);
  for (const ConcreteRow& row : s.value().Enumerate(-5, 5)) {
    EXPECT_NE(row.temporal[0], row.temporal[1]);
  }
  EXPECT_EQ(s.value().Enumerate(-5, 5).size(), 11u * 11u - 11u);
}

TEST(SelectTemporalTest, BetweenColumnsWithOffset) {
  GeneralizedRelation r(Schema::Temporal(2));
  ASSERT_TRUE(
      r.AddTuple(GeneralizedTuple({Lrp::Make(0, 1), Lrp::Make(0, 1)})).ok());
  // X1 < X2 + (-2), i.e. X1 <= X2 - 3.
  Result<GeneralizedRelation> s =
      SelectTemporal(r, TemporalCondition{0, 1, CmpOp::kLt, -2});
  ASSERT_TRUE(s.ok());
  for (const ConcreteRow& row : s.value().Enumerate(-5, 5)) {
    EXPECT_LE(row.temporal[0], row.temporal[1] - 3);
  }
  EXPECT_FALSE(s.value().Enumerate(-5, 5).empty());
}

TEST(SelectDataTest, FiltersOnValues) {
  Schema schema({"T"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  GeneralizedTuple t1({Lrp::Make(0, 2)}, {Value("a")});
  GeneralizedTuple t2({Lrp::Make(1, 2)}, {Value("b")});
  ASSERT_TRUE(r.AddTuple(std::move(t1)).ok());
  ASSERT_TRUE(r.AddTuple(std::move(t2)).ok());
  Result<GeneralizedRelation> s = SelectData(r, 0, CmpOp::kEq, Value("b"));
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s.value().size(), 1);
  EXPECT_EQ(s.value().tuples()[0].value(0).AsString(), "b");
  s = SelectData(r, 0, CmpOp::kNe, Value("b"));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().size(), 1);
}

TEST(CrossProductTest, CombinesColumnsAndConstraints) {
  GeneralizedRelation a(Schema({"A"}, {}, {}));
  GeneralizedTuple ta({Lrp::Make(0, 2)});
  ta.mutable_constraints().AddLowerBound(0, 0);
  ASSERT_TRUE(a.AddTuple(std::move(ta)).ok());
  GeneralizedRelation b(Schema({"B"}, {}, {}));
  GeneralizedTuple tb({Lrp::Make(1, 2)});
  tb.mutable_constraints().AddUpperBound(0, 9);
  ASSERT_TRUE(b.AddTuple(std::move(tb)).ok());
  Result<GeneralizedRelation> x = CrossProduct(a, b);
  ASSERT_TRUE(x.ok());
  ASSERT_EQ(x.value().size(), 1);
  EXPECT_EQ(x.value().schema().temporal_names(),
            (std::vector<std::string>{"A", "B"}));
  for (const ConcreteRow& row : x.value().Enumerate(-10, 10)) {
    EXPECT_GE(row.temporal[0], 0);
    EXPECT_LE(row.temporal[1], 9);
  }
  EXPECT_EQ(x.value().Enumerate(-10, 10).size(), 6u * 10u);
}

TEST(CrossProductTest, DuplicateNamesRejected) {
  GeneralizedRelation a(Schema::Temporal(1));
  GeneralizedRelation b(Schema::Temporal(1));
  EXPECT_FALSE(CrossProduct(a, b).ok());  // Both have "T1".
}

TEST(JoinTest, SharedTemporalAttribute) {
  // Join on shared attribute "T": evens ^ multiples-of-3 = multiples of 6.
  GeneralizedRelation a(Schema({"T", "A"}, {}, {}));
  ASSERT_TRUE(
      a.AddTuple(GeneralizedTuple({Lrp::Make(0, 2), Lrp::Make(0, 1)})).ok());
  GeneralizedRelation b(Schema({"T", "B"}, {}, {}));
  ASSERT_TRUE(
      b.AddTuple(GeneralizedTuple({Lrp::Make(0, 3), Lrp::Make(0, 1)})).ok());
  Result<GeneralizedRelation> j = Join(a, b);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().schema().temporal_names(),
            (std::vector<std::string>{"T", "A", "B"}));
  ASSERT_EQ(j.value().size(), 1);
  EXPECT_EQ(j.value().tuples()[0].lrp(0), Lrp::Make(0, 6));
}

TEST(JoinTest, ConstraintsCarryAcross) {
  // a: T <= A - 1;  b: T >= 5.  Join on T: both constraints hold.
  GeneralizedRelation a(Schema({"T", "A"}, {}, {}));
  GeneralizedTuple ta({Lrp::Make(0, 1), Lrp::Make(0, 1)});
  ta.mutable_constraints().AddDifferenceUpperBound(0, 1, -1);
  ASSERT_TRUE(a.AddTuple(std::move(ta)).ok());
  GeneralizedRelation b(Schema({"T"}, {}, {}));
  GeneralizedTuple tb({Lrp::Make(0, 1)});
  tb.mutable_constraints().AddLowerBound(0, 5);
  ASSERT_TRUE(b.AddTuple(std::move(tb)).ok());
  Result<GeneralizedRelation> j = Join(a, b);
  ASSERT_TRUE(j.ok());
  for (const ConcreteRow& row : j.value().Enumerate(-10, 10)) {
    EXPECT_GE(row.temporal[0], 5);
    EXPECT_LT(row.temporal[0], row.temporal[1]);
  }
  EXPECT_FALSE(j.value().Enumerate(-10, 10).empty());
}

TEST(JoinTest, SharedDataAttribute) {
  Schema sa({"T1"}, {"who"}, {DataType::kString});
  Schema sb({"T2"}, {"who"}, {DataType::kString});
  GeneralizedRelation a(sa);
  ASSERT_TRUE(
      a.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)}, {Value("x")})).ok());
  ASSERT_TRUE(
      a.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)}, {Value("y")})).ok());
  GeneralizedRelation b(sb);
  ASSERT_TRUE(
      b.AddTuple(GeneralizedTuple({Lrp::Make(1, 2)}, {Value("x")})).ok());
  Result<GeneralizedRelation> j = Join(a, b);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j.value().size(), 1);
  EXPECT_EQ(j.value().tuples()[0].value(0).AsString(), "x");
  EXPECT_EQ(j.value().schema().temporal_arity(), 2);
}

TEST(JoinTest, DisjointSchemasDegenerateToCrossProduct) {
  GeneralizedRelation a(Schema({"A"}, {}, {}));
  ASSERT_TRUE(a.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)})).ok());
  GeneralizedRelation b(Schema({"B"}, {}, {}));
  ASSERT_TRUE(b.AddTuple(GeneralizedTuple({Lrp::Make(0, 3)})).ok());
  Result<GeneralizedRelation> j = Join(a, b);
  ASSERT_TRUE(j.ok());
  Result<GeneralizedRelation> x = CrossProduct(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(FiniteRelation::Materialize(j.value(), -6, 6),
            FiniteRelation::Materialize(x.value(), -6, 6));
}

TEST(RenameTest, RenamesAndValidates) {
  Schema schema({"T1"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  Result<GeneralizedRelation> renamed = Rename(r, {{"T1", "Start"}});
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed.value().schema().temporal_name(0), "Start");
  EXPECT_FALSE(Rename(r, {{"nope", "x"}}).ok());
  Schema two({"T1", "T2"}, {}, {});
  GeneralizedRelation r2(two);
  EXPECT_FALSE(Rename(r2, {{"T1", "T2"}}).ok());  // Duplicate.
}

TEST(IsEmptyTest, LatticeExactEmptiness) {
  // Real-feasible but lattice-empty (Figure 2 style).
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 3);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<bool> empty = IsEmpty(r);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value());
}

TEST(IsEmptyTest, NonEmptyDetected) {
  GeneralizedRelation r = Unary({Lrp::Make(0, 5)});
  Result<bool> empty = IsEmpty(r);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value());
}

TEST(IsEmptyTest, EmptyRelationIsEmpty) {
  GeneralizedRelation r(Schema::Temporal(1));
  EXPECT_TRUE(IsEmpty(r).value());
}

// A data-only tuple whose only constraint is the ground contradiction
// 0 <= -1: it denotes no row, and neither does anything built from it.
GeneralizedRelation DataOnly(bool contradiction) {
  GeneralizedRelation r(Schema({}, {"K"}, {DataType::kInt}));
  GeneralizedTuple t(std::vector<Lrp>{}, {Value(std::int64_t{7})});
  if (contradiction) {
    t.mutable_constraints().AddAtomic({kZeroVar, kZeroVar, -1});
  }
  EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
  return r;
}

bool EmptyResult(const Result<GeneralizedRelation>& r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() && IsEmpty(*r).value();
}

TEST(IsEmptyTest, CrossProductKeepsAGroundContradiction) {
  GeneralizedRelation a = DataOnly(true);
  GeneralizedRelation b = Unary({Lrp::Make(0, 1)});
  ASSERT_TRUE(IsEmpty(a).value());
  EXPECT_TRUE(EmptyResult(CrossProduct(a, b)));
  EXPECT_TRUE(EmptyResult(CrossProduct(b, a)));
}

TEST(IsEmptyTest, BinaryOperatorsAgreeWithIsEmptyOnAGroundContradiction) {
  GeneralizedRelation flagged = DataOnly(true);
  GeneralizedRelation plain = DataOnly(false);
  GeneralizedRelation b = Unary({Lrp::Make(0, 1)});
  ASSERT_FALSE(IsEmpty(plain).value());
  EXPECT_TRUE(EmptyResult(Join(flagged, b)));
  EXPECT_TRUE(EmptyResult(Join(b, flagged)));
  EXPECT_TRUE(EmptyResult(Join(flagged, plain)));
  EXPECT_TRUE(EmptyResult(Join(plain, flagged)));
  EXPECT_TRUE(EmptyResult(Intersect(flagged, flagged)));
  EXPECT_TRUE(EmptyResult(Intersect(flagged, plain)));
  EXPECT_TRUE(EmptyResult(Intersect(plain, flagged)));
  EXPECT_TRUE(EmptyResult(Subtract(flagged, plain)));
  // Subtracting the empty tuple removes nothing.
  EXPECT_FALSE(EmptyResult(Subtract(plain, flagged)));
}

}  // namespace
}  // namespace itdb
