#include "core/simplify.h"

#include <gtest/gtest.h>

namespace itdb {
namespace {

TEST(TupleSubsumesTest, LrpInclusionAndConstraintImplication) {
  GeneralizedTuple big({Lrp::Make(0, 2)});
  GeneralizedTuple small({Lrp::Make(0, 4)});
  EXPECT_TRUE(TupleSubsumes(big, small).value());
  EXPECT_FALSE(TupleSubsumes(small, big).value());
}

TEST(TupleSubsumesTest, ConstraintsMatter) {
  GeneralizedTuple big({Lrp::Make(0, 2)});
  big.mutable_constraints().AddLowerBound(0, 0);
  GeneralizedTuple small({Lrp::Make(0, 4)});
  small.mutable_constraints().AddLowerBound(0, 10);
  EXPECT_TRUE(TupleSubsumes(big, small).value());
  GeneralizedTuple unconstrained({Lrp::Make(0, 4)});
  EXPECT_FALSE(TupleSubsumes(big, unconstrained).value());
}

TEST(TupleSubsumesTest, DataMustMatch) {
  GeneralizedTuple big({Lrp::Make(0, 1)}, {Value("a")});
  GeneralizedTuple small({Lrp::Make(0, 2)}, {Value("b")});
  EXPECT_FALSE(TupleSubsumes(big, small).value());
}

TEST(TupleSubsumesTest, EmptyTupleSubsumedByAnything) {
  GeneralizedTuple big({Lrp::Make(0, 2)});
  GeneralizedTuple empty({Lrp::Make(1, 2)});
  empty.mutable_constraints().AddUpperBound(0, 0);
  empty.mutable_constraints().AddLowerBound(0, 1);
  EXPECT_TRUE(TupleSubsumes(big, empty).value());
}

TEST(SimplifyTest, DropsEmptyTuples) {
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple dead({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  dead.mutable_constraints().AddDifferenceEquality(0, 1, 3);  // Lattice-empty.
  ASSERT_TRUE(r.AddTuple(std::move(dead)).ok());
  ASSERT_TRUE(
      r.AddTuple(GeneralizedTuple({Lrp::Make(0, 2), Lrp::Make(0, 2)})).ok());
  Result<GeneralizedRelation> s = Simplify(r);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().size(), 1);
}

TEST(SimplifyTest, DropsSubsumedTuples) {
  GeneralizedRelation r(Schema::Temporal(1));
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(0, 4)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(2, 4)})).ok());
  Result<GeneralizedRelation> s = Simplify(r);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().size(), 1);
  EXPECT_EQ(s.value().tuples()[0].lrp(0), Lrp::Make(0, 2));
}

TEST(SimplifyTest, KeepsExactlyOneOfDuplicates) {
  GeneralizedRelation r(Schema::Temporal(1));
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(1, 3)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(1, 3)})).ok());
  Result<GeneralizedRelation> s = Simplify(r);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().size(), 1);
}

TEST(SimplifyTest, PreservesSemantics) {
  GeneralizedRelation r(Schema::Temporal(1));
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(0, 6)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(1, 6)})).ok());
  Result<GeneralizedRelation> s = Simplify(r);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().Enumerate(-30, 30), r.Enumerate(-30, 30));
  EXPECT_LT(s.value().size(), r.size());
}

// ---------------------------------------------------------------------------
// TupleSubsumes on lrp-period mismatches: Includes is exact on residue
// classes, so coprime or shifted periods never subsume even when their
// extensions overlap heavily.

TEST(TupleSubsumesTest, PeriodMismatchesDoNotSubsume) {
  // 0+2n vs 0+3n: neither residue class contains the other.
  GeneralizedTuple evens({Lrp::Make(0, 2)});
  GeneralizedTuple thirds({Lrp::Make(0, 3)});
  EXPECT_FALSE(TupleSubsumes(evens, thirds).value());
  EXPECT_FALSE(TupleSubsumes(thirds, evens).value());
  // 0+2n vs 1+4n: same period family, wrong coset.
  GeneralizedTuple odd4({Lrp::Make(1, 4)});
  EXPECT_FALSE(TupleSubsumes(evens, odd4).value());
  // 0+2n does include the singleton {6} but not {7}.
  EXPECT_TRUE(TupleSubsumes(evens, GeneralizedTuple({Lrp::Singleton(6)}))
                  .value());
  EXPECT_FALSE(TupleSubsumes(evens, GeneralizedTuple({Lrp::Singleton(7)}))
                   .value());
}

TEST(TupleSubsumesTest, PuncturedComplementIsSoundNotComplete) {
  // The complement of {4} within 0+2n comes back as bound-constrained
  // pieces (T <= 2, T >= 6).  Each piece IS a subset of the full lrp, and
  // the subsumption test proves it (lrp equal, constraints imply "true").
  GeneralizedTuple full({Lrp::Make(0, 2)});
  GeneralizedTuple below({Lrp::Make(0, 2)});
  below.mutable_constraints().AddUpperBound(0, 2);
  GeneralizedTuple above({Lrp::Make(0, 2)});
  above.mutable_constraints().AddLowerBound(0, 6);
  EXPECT_TRUE(TupleSubsumes(full, below).value());
  EXPECT_TRUE(TupleSubsumes(full, above).value());
  // But the union of the pieces does not subsume the full lrp pairwise --
  // the test is sound, not complete: it cannot stitch pieces together.
  EXPECT_FALSE(TupleSubsumes(below, full).value());
  EXPECT_FALSE(TupleSubsumes(above, full).value());
  EXPECT_FALSE(TupleSubsumes(below, above).value());
}

// ---------------------------------------------------------------------------
// Exact emptiness: Simplify decides it on the lattice, not the relaxation.

TEST(SimplifyTest, DropsLatticeEmptyTuples) {
  // 0+8n with T1 - T2 = 3 has an empty lattice extension (8 | difference
  // of equal-period columns) but a feasible real relaxation: the exact
  // Simplify must drop it.
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple dead({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  dead.mutable_constraints().AddDifferenceEquality(0, 1, 3);
  ASSERT_TRUE(r.AddTuple(std::move(dead)).ok());
  Result<GeneralizedRelation> exact = Simplify(r);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().size(), 0);
}

TEST(SimplifyTest, KeepsANonemptyTupleTooWideToNormalizeWhole) {
  // Periods 7, 5, 5 and 12: normalizing the whole tuple would split it past
  // the default budget (period 420).  The emptiness test drops the two
  // unconstrained columns first and keeps the tuple.
  GeneralizedRelation r(Schema::Temporal(4));
  GeneralizedTuple t(
      {Lrp::Make(2, 7), Lrp::Make(0, 5), Lrp::Make(0, 5), Lrp::Make(7, 12)});
  t.mutable_constraints().AddLowerBound(3, -2);                // D >= -2.
  t.mutable_constraints().AddDifferenceUpperBound(2, 3, -5);  // C <= D - 5.
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> s = Simplify(r);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s.value().size(), 1);
}

}  // namespace
}  // namespace itdb
