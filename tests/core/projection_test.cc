// Projection tests, centered on the paper's Figure 2 / Example 3.2: the
// case where naive real-arithmetic variable elimination is unsound and
// normalization fixes it (Theorem 3.1).

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/normalize.h"
#include "core/relation.h"
#include "obs/metrics.h"

namespace itdb {
namespace {

using Point = std::vector<std::int64_t>;

std::set<std::int64_t> UnaryEnum(const GeneralizedRelation& r, std::int64_t lo,
                                 std::int64_t hi) {
  std::set<std::int64_t> out;
  for (const ConcreteRow& row : r.Enumerate(lo, hi)) {
    out.insert(row.temporal[0]);
  }
  return out;
}

GeneralizedRelation Figure2Relation() {
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(3, 4), Lrp::Make(1, 8)});
  Dbm& c = t.mutable_constraints();
  c.AddDifferenceUpperBound(1, 0, 0);  // X1 >= X2.
  c.AddDifferenceUpperBound(0, 1, 5);  // X1 <= X2 + 5.
  c.AddLowerBound(1, 2);               // X2 >= 2.
  EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
  return r;
}

TEST(ProjectionTest, PaperExample32ProjectionOnX1) {
  // The paper's worked result: Pi_{X1} = [8n+3] with X1 >= 11, i.e. the set
  // {11, 19, 27, ...}.  The naive real projection would wrongly include
  // 3, 7, 15, 23, ...
  GeneralizedRelation r = Figure2Relation();
  Result<GeneralizedRelation> p = Project(r, {"T1"});
  ASSERT_TRUE(p.ok());
  std::set<std::int64_t> got = UnaryEnum(p.value(), -10, 60);
  std::set<std::int64_t> expect;
  for (std::int64_t x = 11; x <= 60; x += 8) expect.insert(x);
  EXPECT_EQ(got, expect);
  // The real-projection artifacts of Figure 2 are absent.
  for (std::int64_t bogus : {3, 7, 15, 23}) {
    EXPECT_EQ(got.count(bogus), 0u) << bogus;
  }
}

TEST(ProjectionTest, PaperExample32ProjectionIsSingleTupleWithBound) {
  GeneralizedRelation r = Figure2Relation();
  Result<GeneralizedRelation> p = Project(r, {"T1"});
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().size(), 1);
  const GeneralizedTuple& t = p.value().tuples()[0];
  EXPECT_EQ(t.lrp(0), Lrp::Make(3, 8));
  EXPECT_FALSE(t.ContainsTemporal({3}));
  EXPECT_TRUE(t.ContainsTemporal({11}));
  EXPECT_TRUE(t.ContainsTemporal({19}));
}

TEST(ProjectionTest, ProjectionMatchesEnumerationSemantics) {
  // Enumerate-then-project == project-then-enumerate on a window wide enough
  // to contain all projection witnesses.
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(1, 3), Lrp::Make(0, 2)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 1);
  t.mutable_constraints().AddDifferenceUpperBound(1, 0, 4);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> p = Project(r, {"T1"});
  ASSERT_TRUE(p.ok());
  std::set<std::int64_t> direct;
  for (const ConcreteRow& row : r.Enumerate(-40, 40)) {
    if (row.temporal[0] >= -20 && row.temporal[0] <= 20) {
      direct.insert(row.temporal[0]);
    }
  }
  EXPECT_EQ(UnaryEnum(p.value(), -20, 20), direct);
}

TEST(ProjectionTest, DropsDataColumns) {
  Schema schema({"T1"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  GeneralizedTuple t({Lrp::Make(0, 5)}, {Value("robot")});
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> p = Project(r, {"T1"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().schema().data_arity(), 0);
  EXPECT_EQ(p.value().schema().temporal_arity(), 1);
}

TEST(ProjectionTest, KeepsDataDropsTemporal) {
  Schema schema({"T1", "T2"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  GeneralizedTuple t({Lrp::Make(0, 5), Lrp::Make(1, 5)}, {Value("robot")});
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> p = Project(r, {"T2", "who"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().schema().temporal_names(),
            std::vector<std::string>{"T2"});
  EXPECT_EQ(p.value().schema().data_names(), std::vector<std::string>{"who"});
  ASSERT_EQ(p.value().size(), 1);
  EXPECT_EQ(p.value().tuples()[0].lrp(0), Lrp::Make(1, 5));
  EXPECT_EQ(p.value().tuples()[0].value(0).AsString(), "robot");
}

TEST(ProjectionTest, ReordersTemporalColumns) {
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(0, 2), Lrp::Make(1, 2)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, -1);  // X1 < X2.
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> p = Project(r, {"T2", "T1"});
  ASSERT_TRUE(p.ok());
  for (const ConcreteRow& row : p.value().Enumerate(-10, 10)) {
    EXPECT_GT(row.temporal[0], row.temporal[1]);
  }
  EXPECT_FALSE(p.value().Enumerate(-10, 10).empty());
}

TEST(ProjectionTest, UnknownAttributeFails) {
  GeneralizedRelation r = Figure2Relation();
  Result<GeneralizedRelation> p = Project(r, {"nope"});
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

TEST(ProjectionTest, InfeasibleTuplesVanish) {
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 3);  // Lattice-empty.
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> p = Project(r, {"T1"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().size(), 0);
}

TEST(ProjectionTest, PartialAndFullNormalizationAgree) {
  // A dropped column disconnected from a large-period pair: the partial
  // path avoids their split; both paths must yield the same set.
  GeneralizedRelation r(Schema({"T1", "T2", "T3"}, {}, {}));
  GeneralizedTuple t({Lrp::Make(2, 6), Lrp::Make(1, 10), Lrp::Make(0, 4)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 3);
  t.mutable_constraints().AddLowerBound(2, -8);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  AlgebraOptions partial;
  partial.partial_normalization = true;
  AlgebraOptions full;
  full.partial_normalization = false;
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {"T1", "T2"}, {"T3"}, {"T2"}, {"T2", "T1", "T3"}, {}}) {
    Result<GeneralizedRelation> a = Project(r, attrs, partial);
    Result<GeneralizedRelation> b = Project(r, attrs, full);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a.value().Enumerate(-30, 30), b.value().Enumerate(-30, 30));
  }
}

TEST(ProjectionTest, PartialNormalizationAvoidsUnrelatedSplit) {
  // Dropping the lone period-4 column must not multiply the coprime pair:
  // the result should be a single tuple, not lcm-many.
  GeneralizedRelation r(Schema({"T1", "T2", "T3"}, {}, {}));
  GeneralizedTuple t({Lrp::Make(0, 35), Lrp::Make(0, 33), Lrp::Make(1, 4)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 5);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  AlgebraOptions partial;
  partial.partial_normalization = true;
  Result<GeneralizedRelation> p = Project(r, {"T1", "T2"}, partial);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value().size(), 1);
  EXPECT_EQ(p.value().tuples()[0].lrp(0), Lrp::Make(0, 35));
  EXPECT_EQ(p.value().tuples()[0].lrp(1), Lrp::Make(0, 33));
}

// ---- Exact elimination of free and pinned columns. ----
// Each case projects one tuple with the default kernel, which eliminates
// free (period-1) and pinned columns on the closed DBM without normalizing,
// and with the verbatim Section 3.4 reference (partial_normalization =
// false).  Both must denote the same set; TupleIsEmpty must agree with the
// reference's Theorem 3.5 test (no normal-form piece survives).

GeneralizedRelation OneTuple(GeneralizedTuple t) {
  GeneralizedRelation r(Schema::Temporal(t.temporal_arity()));
  EXPECT_TRUE(r.AddTuple(std::move(t)).ok());
  return r;
}

std::int64_t NormalizeCalls() {
  return obs::MetricsRegistry::Global().GetCounter("normalize.calls")->value();
}

/// Returns the default kernel's projection after checking it against the
/// reference, and checks TupleIsEmpty against `expect_empty` and the
/// reference.  Unless `normalizes`, the projection must not normalize.
GeneralizedRelation ExpectExactMatchesReference(
    const GeneralizedTuple& t, const std::vector<std::string>& attrs,
    bool expect_empty, bool normalizes = false) {
  GeneralizedRelation r = OneTuple(t);
  AlgebraOptions full;
  full.partial_normalization = false;
  const std::int64_t calls = NormalizeCalls();
  Result<GeneralizedRelation> exact = Project(r, attrs);
  if (!normalizes) {
    EXPECT_EQ(NormalizeCalls(), calls) << t.ToString();
  }
  Result<GeneralizedRelation> reference = Project(r, attrs, full);
  EXPECT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(reference.ok()) << reference.status();
  if (!exact.ok() || !reference.ok()) return GeneralizedRelation(r.schema());
  EXPECT_EQ(exact->Enumerate(-60, 60), reference->Enumerate(-60, 60))
      << "tuple: " << t.ToString() << "\nexact:\n"
      << exact->ToString() << "reference:\n"
      << reference->ToString();
  Result<bool> empty = TupleIsEmpty(t);
  Result<std::vector<GeneralizedTuple>> normal = NormalizeTuple(t);
  EXPECT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(normal.ok()) << normal.status();
  if (empty.ok() && normal.ok()) {
    EXPECT_EQ(*empty, expect_empty) << t.ToString();
    EXPECT_EQ(*empty, normal->empty()) << t.ToString();
  }
  EXPECT_EQ(exact->size() == 0, expect_empty);
  return std::move(exact).value();
}

TEST(ProjectionTest, ExactDropsAPeriodOneColumn) {
  // T1 ranges over all of Z with T2 - 1 <= T1 <= T2 + 2 and T1 >= 7: some
  // integer T1 fits for every T2 >= 6.
  GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(3, 5)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 2);
  t.mutable_constraints().AddDifferenceUpperBound(1, 0, 1);
  t.mutable_constraints().AddLowerBound(0, 7);
  GeneralizedRelation p = ExpectExactMatchesReference(t, {"T2"}, false);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.tuples()[0].lrp(0), Lrp::Make(3, 5));
  EXPECT_FALSE(p.tuples()[0].ContainsTemporal({3}));
  EXPECT_TRUE(p.tuples()[0].ContainsTemporal({8}));
}

TEST(ProjectionTest, ExactDropsAnUnconstrainedColumn) {
  // No constraint mentions T1: some point of 0+7n always fits.
  GeneralizedTuple t({Lrp::Make(0, 7), Lrp::Make(1, 4), Lrp::Make(3, 6)});
  t.mutable_constraints().AddDifferenceUpperBound(1, 2, 3);
  t.mutable_constraints().AddDifferenceUpperBound(2, 1, 5);
  GeneralizedRelation p = ExpectExactMatchesReference(t, {"T2", "T3"}, false);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.tuples()[0].lrp(0), Lrp::Make(1, 4));
  EXPECT_EQ(p.tuples()[0].lrp(1), Lrp::Make(3, 6));
}

TEST(ProjectionTest, ExactDropsAColumnPinnedToAKeptColumn) {
  // T2 = T1 + 2 with T2 in 3+6n: T1 in (1+4n) meet (1+6n) = 1+12n.
  GeneralizedTuple t({Lrp::Make(1, 4), Lrp::Make(3, 6)});
  t.mutable_constraints().AddDifferenceEquality(1, 0, 2);
  t.mutable_constraints().AddUpperBound(1, 40);
  GeneralizedRelation p = ExpectExactMatchesReference(t, {"T1"}, false);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.tuples()[0].lrp(0), Lrp::Make(1, 12));
  EXPECT_TRUE(p.tuples()[0].ContainsTemporal({37}));
  EXPECT_FALSE(p.tuples()[0].ContainsTemporal({49}));
}

TEST(ProjectionTest, ExactDropsAColumnPinnedToADroppedColumn) {
  // T1 = T2 + 1 narrows the dropped T2 to 1+12n; T2 <= T3 then still needs
  // (partial) normalization against T3's period 9.
  GeneralizedTuple t({Lrp::Make(2, 6), Lrp::Make(1, 4), Lrp::Make(0, 9)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 1);
  t.mutable_constraints().AddDifferenceUpperBound(1, 2, 0);
  t.mutable_constraints().AddDifferenceUpperBound(2, 1, 5);
  ExpectExactMatchesReference(t, {"T3"}, false, /*normalizes=*/true);
  ExpectExactMatchesReference(t, {"T2", "T3"}, false);
}

TEST(ProjectionTest, ExactDropsAChainOfPins) {
  // T1 = T2 + 4 and T2 = T3 + 1 (so T1 = T3 + 5): both drop without a
  // split, leaving T3 in (0+2n) meet (0+3n) meet (0+5n) = 0+30n.
  GeneralizedTuple t({Lrp::Make(0, 5), Lrp::Make(1, 3), Lrp::Make(0, 2)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 4);
  t.mutable_constraints().AddDifferenceEquality(1, 2, 1);
  t.mutable_constraints().AddLowerBound(0, -20);
  GeneralizedRelation p = ExpectExactMatchesReference(t, {"T3"}, false);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.tuples()[0].lrp(0), Lrp::Make(0, 30));
  EXPECT_TRUE(p.tuples()[0].ContainsTemporal({0}));
  EXPECT_FALSE(p.tuples()[0].ContainsTemporal({-30}));
}

TEST(ProjectionTest, ExactDropsAColumnPinnedToAConstant) {
  // T1 = 13 lies in 3+5n; T2 >= T1 then bounds the kept column.
  GeneralizedTuple inside({Lrp::Make(3, 5), Lrp::Make(0, 2)});
  inside.mutable_constraints().AddEquality(0, 13);
  inside.mutable_constraints().AddDifferenceUpperBound(0, 1, 0);
  GeneralizedRelation p = ExpectExactMatchesReference(inside, {"T2"}, false);
  ASSERT_EQ(p.size(), 1);
  EXPECT_FALSE(p.tuples()[0].ContainsTemporal({12}));
  EXPECT_TRUE(p.tuples()[0].ContainsTemporal({14}));
  // T1 = 12 misses 3+5n: the tuple is empty.
  GeneralizedTuple outside({Lrp::Make(3, 5), Lrp::Make(0, 2)});
  outside.mutable_constraints().AddEquality(0, 12);
  outside.mutable_constraints().AddDifferenceUpperBound(0, 1, 0);
  ExpectExactMatchesReference(outside, {"T2"}, true);
}

TEST(ProjectionTest, ExactPinWithAnEmptyMeetIsEmpty) {
  // T2 = T1 + 2 with T1 even and T2 in 1+6n (odd): no lattice point.
  GeneralizedTuple t({Lrp::Make(0, 4), Lrp::Make(1, 6)});
  t.mutable_constraints().AddDifferenceEquality(1, 0, 2);
  ExpectExactMatchesReference(t, {"T1"}, true);
  ExpectExactMatchesReference(t, {"T2"}, true);
}

TEST(ProjectionTest, ReorderOnlyProjectionKeepsTheRepresentation) {
  // No temporal column is dropped: the tuple comes back column-permuted
  // with its lrps and its constraint entries unchanged.
  GeneralizedTuple t({Lrp::Make(1, 4), Lrp::Make(3, 6)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 5);
  t.mutable_constraints().AddLowerBound(1, -2);
  GeneralizedRelation r = OneTuple(t);
  Result<GeneralizedRelation> p = Project(r, {"T2", "T1"});
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->size(), 1);
  const GeneralizedTuple& out = p->tuples()[0];
  EXPECT_EQ(out.lrp(0), t.lrp(1));
  EXPECT_EQ(out.lrp(1), t.lrp(0));
  const Dbm& in = t.constraints();
  const Dbm& swapped = out.constraints();
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      const int pa = a == 0 ? 0 : 3 - a;
      const int pb = b == 0 ? 0 : 3 - b;
      EXPECT_EQ(swapped.bound_node(pa, pb), in.bound_node(a, b)) << a << b;
    }
  }
}

TEST(ProjectionTest, BoundImpliedEdgeDoesNotJoinTheComponent) {
  // T1 - T2 <= 10 follows from T1 <= 30 and T2 >= 20 (a closed matrix
  // always carries such edges).  It must neither pull T2 into T1's
  // normalized component (T2 would split 3 ways to period 6) nor reach
  // the component as a bound on T1 alone.
  GeneralizedTuple t({Lrp::Make(0, 3), Lrp::Make(0, 2)});
  t.mutable_constraints().AddLowerBound(0, 11);
  t.mutable_constraints().AddUpperBound(0, 30);
  t.mutable_constraints().AddLowerBound(1, 20);
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 10);
  GeneralizedRelation p =
      ExpectExactMatchesReference(t, {"T2"}, false, /*normalizes=*/true);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.tuples()[0].lrp(0), Lrp::Make(0, 2));
  EXPECT_TRUE(p.tuples()[0].ContainsTemporal({20}));
  EXPECT_FALSE(p.tuples()[0].ContainsTemporal({18}));
}

TEST(ProjectionTest, EmptyAttributeListYieldsZeroArity) {
  GeneralizedRelation r = Figure2Relation();
  Result<GeneralizedRelation> p = Project(r, {});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().schema().temporal_arity(), 0);
  // Nonempty input: the zero-arity projection contains the empty point.
  EXPECT_EQ(p.value().size(), 1);
}

}  // namespace
}  // namespace itdb
