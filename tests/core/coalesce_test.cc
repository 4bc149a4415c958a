#include "core/coalesce.h"

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "core/algebra.h"

namespace itdb {
namespace {

using testing_util::MakeRandomRelation;
using testing_util::RandomRelationConfig;

GeneralizedRelation Unary(std::initializer_list<Lrp> lrps) {
  GeneralizedRelation r(Schema::Temporal(1));
  for (const Lrp& l : lrps) {
    EXPECT_TRUE(r.AddTuple(GeneralizedTuple({l})).ok());
  }
  return r;
}

TEST(CoalesceTest, FullResidueFamilyCollapsesToZ) {
  GeneralizedRelation r =
      Unary({Lrp::Make(0, 3), Lrp::Make(1, 3), Lrp::Make(2, 3)});
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 1);
  EXPECT_EQ(c.value().tuples()[0].lrp(0), Lrp::Make(0, 1));
}

TEST(CoalesceTest, FamiliesMergingToOneTupleKeepOneCopy) {
  // Three complete residue families, each of which merges to 0+1n.
  GeneralizedRelation r = Unary({Lrp::Make(0, 2), Lrp::Make(1, 2),
                                 Lrp::Make(0, 3), Lrp::Make(1, 3),
                                 Lrp::Make(2, 3), Lrp::Make(0, 5),
                                 Lrp::Make(1, 5), Lrp::Make(2, 5),
                                 Lrp::Make(3, 5), Lrp::Make(4, 5)});
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 1);
  EXPECT_EQ(c.value().tuples()[0].lrp(0), Lrp::Make(0, 1));
}

TEST(CoalesceTest, PartialFamilyCollapsesToCoarserPeriod) {
  // {1+6n, 4+6n} == 1+3n; the third class 2+6n stays apart.
  GeneralizedRelation r =
      Unary({Lrp::Make(1, 6), Lrp::Make(4, 6), Lrp::Make(2, 6)});
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().size(), 2);
  Result<bool> same = Equivalent(c.value(), r);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same.value());
}

TEST(CoalesceTest, DifferentConstraintsDoNotMerge) {
  GeneralizedRelation r(Schema::Temporal(1));
  GeneralizedTuple a({Lrp::Make(0, 2)});
  a.mutable_constraints().AddLowerBound(0, 0);
  ASSERT_TRUE(r.AddTuple(std::move(a)).ok());
  GeneralizedTuple b({Lrp::Make(1, 2)});
  b.mutable_constraints().AddLowerBound(0, 5);
  ASSERT_TRUE(r.AddTuple(std::move(b)).ok());
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().size(), 2);
}

TEST(CoalesceTest, EqualConstraintsMerge) {
  GeneralizedRelation r(Schema::Temporal(1));
  for (std::int64_t offset : {0, 1}) {
    GeneralizedTuple t({Lrp::Make(offset, 2)});
    t.mutable_constraints().AddLowerBound(0, 3);
    ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  }
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 1);
  EXPECT_EQ(c.value().tuples()[0].lrp(0), Lrp::Make(0, 1));
  EXPECT_TRUE(Equivalent(c.value(), r).value());
}

TEST(CoalesceTest, MultiColumnCascade) {
  // 2x2 grid of residues mod 2 on both columns collapses to [Z, Z] --
  // requires merging one column, then the other.
  GeneralizedRelation r(Schema::Temporal(2));
  for (std::int64_t a : {0, 1}) {
    for (std::int64_t b : {0, 1}) {
      ASSERT_TRUE(
          r.AddTuple(GeneralizedTuple({Lrp::Make(a, 2), Lrp::Make(b, 2)}))
              .ok());
    }
  }
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 1);
  EXPECT_EQ(c.value().tuples()[0].lrp(0), Lrp::Make(0, 1));
  EXPECT_EQ(c.value().tuples()[0].lrp(1), Lrp::Make(0, 1));
}

TEST(CoalesceTest, SingletonColumnIsSkippedThenTheNextColumnMerges) {
  // {[5, 0+2n], [5, 1+2n]}: the pass over column 0 finds only singletons
  // and forms no family; the pass over column 1 merges the two residues.
  GeneralizedRelation r(Schema::Temporal(2));
  for (std::int64_t offset : {0, 1}) {
    ASSERT_TRUE(r.AddTuple(GeneralizedTuple(
                               {Lrp::Singleton(5), Lrp::Make(offset, 2)}))
                    .ok());
  }
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_EQ(c.value().size(), 1);
  EXPECT_EQ(c.value().tuples()[0].lrp(0), Lrp::Singleton(5));
  EXPECT_EQ(c.value().tuples()[0].lrp(1), Lrp::Make(0, 1));
  EXPECT_TRUE(Equivalent(c.value(), r).value());
}

TEST(CoalesceTest, DropsEmptyAndDuplicateTuples) {
  GeneralizedRelation r(Schema::Temporal(1));
  GeneralizedTuple dead({Lrp::Make(0, 2)});
  dead.mutable_constraints().AddUpperBound(0, 0);
  dead.mutable_constraints().AddLowerBound(0, 1);
  ASSERT_TRUE(r.AddTuple(std::move(dead)).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(1, 3)})).ok());
  ASSERT_TRUE(r.AddTuple(GeneralizedTuple({Lrp::Make(1, 3)})).ok());
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().size(), 1);
}

TEST(CoalesceTest, ComplementOutputCompresses) {
  // The complement of a sparse periodic set is emitted as many residue
  // tuples; coalescing collapses the untouched residues.
  GeneralizedRelation r = Unary({Lrp::Make(3, 30)});
  Result<GeneralizedRelation> comp = Complement(r);
  ASSERT_TRUE(comp.ok());
  ASSERT_GE(comp.value().size(), 29);
  Result<GeneralizedRelation> packed = CoalesceResidues(comp.value());
  ASSERT_TRUE(packed.ok());
  EXPECT_LT(packed.value().size(), comp.value().size() / 2);
  EXPECT_TRUE(Equivalent(packed.value(), comp.value()).value());
}

class CoalescePropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CoalescePropertyTest, PreservesSemanticsAndNeverGrows) {
  RandomRelationConfig cfg;
  cfg.num_tuples = 6;
  cfg.periods = {1, 2, 3, 4, 6};
  GeneralizedRelation r = MakeRandomRelation(GetParam() + 300, cfg);
  Result<GeneralizedRelation> c = CoalesceResidues(r);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_LE(c.value().size(), r.size());
  EXPECT_EQ(c.value().Enumerate(-25, 25), r.Enumerate(-25, 25))
      << r.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{40}));

}  // namespace
}  // namespace itdb
