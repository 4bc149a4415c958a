// Tests for the algebra APIs beyond the paper's core operations: column
// shifting (successor function), witness extraction, and symbolic
// subset/equivalence decisions.

#include <set>

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

TEST(ShiftTemporalColumnTest, ShiftsLrpAndConstraints) {
  GeneralizedRelation r(Schema::Temporal(2));
  GeneralizedTuple t({Lrp::Make(0, 5), Lrp::Make(1, 5)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, -1);  // X0 < X1.
  t.mutable_constraints().AddLowerBound(0, 0);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> shifted = ShiftTemporalColumn(r, 0, 7);
  ASSERT_TRUE(shifted.ok());
  // Every (x, y) of the original becomes (x + 7, y); compare on windows
  // aligned so the shift maps one exactly onto the other.
  std::set<std::vector<std::int64_t>> expect;
  for (const ConcreteRow& row : r.Enumerate(-40, 40)) {
    if (row.temporal[0] <= 33) {
      expect.insert({row.temporal[0] + 7, row.temporal[1]});
    }
  }
  std::set<std::vector<std::int64_t>> got;
  for (const ConcreteRow& row : shifted.value().Enumerate(-40, 40)) {
    if (row.temporal[0] >= -33) got.insert(row.temporal);
  }
  EXPECT_EQ(got, expect);
}

TEST(ShiftTemporalColumnTest, NegativeShiftRoundTrips) {
  GeneralizedRelation r(Schema::Temporal(1));
  GeneralizedTuple t({Lrp::Make(2, 6)});
  t.mutable_constraints().AddLowerBound(0, 2);
  ASSERT_TRUE(r.AddTuple(std::move(t)).ok());
  Result<GeneralizedRelation> there = ShiftTemporalColumn(r, 0, 13);
  ASSERT_TRUE(there.ok());
  Result<GeneralizedRelation> back = ShiftTemporalColumn(there.value(), 0, -13);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Enumerate(-30, 30), r.Enumerate(-30, 30));
}

TEST(ShiftTemporalColumnTest, BadColumnRejected) {
  GeneralizedRelation r(Schema::Temporal(1));
  EXPECT_FALSE(ShiftTemporalColumn(r, 1, 5).ok());
  EXPECT_FALSE(ShiftTemporalColumn(r, -1, 5).ok());
}

TEST(FindWitnessTest, WitnessOfConstrainedTuple) {
  GeneralizedTuple t({Lrp::Make(3, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 2);
  t.mutable_constraints().AddLowerBound(1, 5);
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w.value().has_value());
  EXPECT_TRUE(t.ContainsTemporal(*w.value()));
}

TEST(FindWitnessTest, NoWitnessForLatticeEmptyTuple) {
  GeneralizedTuple t({Lrp::Make(0, 8), Lrp::Make(1, 8)});
  t.mutable_constraints().AddDifferenceEquality(0, 1, 3);
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_FALSE(w.value().has_value());
}

TEST(FindWitnessTest, UnboundedTupleStillYieldsAPoint) {
  GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(0, 1)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, -3);  // X0 <= X1 - 3.
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w.value().has_value());
  EXPECT_TRUE(t.ContainsTemporal(*w.value()));
}

// The W tuple: four columns of periods 7, 5, 5 and 12.  Normalizing it as
// a whole splits it 60 * 84 * 84 * 35 ways (period 420), past the default
// split budget; dropping the unconstrained first two columns leaves a
// period-60 pair.
GeneralizedTuple CoprimeTuple() {
  GeneralizedTuple t(
      {Lrp::Make(2, 7), Lrp::Make(0, 5), Lrp::Make(0, 5), Lrp::Make(7, 12)});
  t.mutable_constraints().AddLowerBound(3, -2);                // D >= -2.
  t.mutable_constraints().AddDifferenceUpperBound(2, 3, -5);  // C <= D - 5.
  return t;
}

TEST(FindWitnessTest, CoprimeTupleHasAWitness) {
  const GeneralizedTuple t = CoprimeTuple();
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w.value().has_value());
  EXPECT_TRUE(t.ContainsTemporal(*w.value()));
  GeneralizedRelation r(Schema::Temporal(4));
  ASSERT_TRUE(r.AddTuple(t).ok());
  Result<std::optional<ConcreteRow>> row = FindWitness(r);
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_TRUE(row.value().has_value());
  EXPECT_TRUE(r.Contains(*row.value()));
}

// The two lifting tests below have periods whose lcm splits the whole tuple
// past the default budget, so only the exact drops make them answer.

TEST(FindWitnessTest, LiftsThroughAPinChain) {
  // X1 = X0 + 2 and X2 = X1 + 1 pin X0 and X1 away; the CRT meets leave X2
  // in 3+420n, and the lift must land X1 in 2+7n and X0 in 0+5n.
  GeneralizedTuple t({Lrp::Make(0, 5), Lrp::Make(2, 7), Lrp::Make(3, 12),
                      Lrp::Make(1, 11)});
  t.mutable_constraints().AddDifferenceEquality(1, 0, 2);
  t.mutable_constraints().AddDifferenceEquality(2, 1, 1);
  t.mutable_constraints().AddLowerBound(0, 10);
  t.mutable_constraints().AddDifferenceUpperBound(2, 3, 0);  // X2 <= X3.
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w.value().has_value());
  EXPECT_TRUE(t.ContainsTemporal(*w.value()));
}

TEST(FindWitnessTest, LiftsTheLastDroppedColumnFirst) {
  // X0 (period 1) is dropped first, which leaves X1 = X0 + 2 unconstrained
  // and dropped next.  Lifting X0 first would pick X0 = 0 and force X1 = 2,
  // outside 0+5n; lifting X1 first picks X1 = 0 and X0 = -2.
  GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(0, 5), Lrp::Make(3, 7),
                      Lrp::Make(1, 12)});
  t.mutable_constraints().AddDifferenceEquality(1, 0, 2);
  t.mutable_constraints().AddDifferenceUpperBound(2, 3, 0);  // X2 <= X3.
  Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w.value().has_value());
  EXPECT_TRUE(t.ContainsTemporal(*w.value()));
  EXPECT_EQ((*w.value())[1], 0);
  EXPECT_EQ((*w.value())[0], -2);
}

// A relation shape and a seed.  The coprime shape draws 4 columns from
// periods 5, 7 and 12 (lcm 420), where normalizing a whole tuple exceeds the
// split budget but the columns left after the exact drops rarely do.
struct WitnessCase {
  RandomRelationConfig cfg;
  std::uint32_t seed;
};

void PrintTo(const WitnessCase& c, std::ostream* os) {
  *os << c.cfg.temporal_arity << " columns, seed " << c.seed;
}

std::vector<WitnessCase> WitnessCases(const RandomRelationConfig& cfg) {
  std::vector<WitnessCase> cases;
  for (std::uint32_t seed = 500; seed < 525; ++seed) {
    cases.push_back({cfg, seed});
  }
  return cases;
}

RandomRelationConfig CoprimeConfig() {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 4;
  cfg.num_tuples = 8;
  cfg.periods = {5, 7, 12};
  return cfg;
}

class FindWitnessPropertyTest : public ::testing::TestWithParam<WitnessCase> {
};

TEST_P(FindWitnessPropertyTest, WitnessIffNonEmpty) {
  GeneralizedRelation r = MakeRandomRelation(GetParam().seed, GetParam().cfg);
  for (const GeneralizedTuple& t : r.tuples()) {
    Result<bool> empty = TupleIsEmpty(t);
    ASSERT_TRUE(empty.ok()) << empty.status() << " for " << t.ToString();
    Result<std::optional<std::vector<std::int64_t>>> w = FirstPoint(t);
    ASSERT_TRUE(w.ok()) << w.status() << " for " << t.ToString();
    EXPECT_EQ(!empty.value(), w.value().has_value()) << t.ToString();
    if (w.value().has_value()) {
      EXPECT_TRUE(t.ContainsTemporal(*w.value())) << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindWitnessPropertyTest,
                         ::testing::ValuesIn(WitnessCases({})));
INSTANTIATE_TEST_SUITE_P(CoprimePeriods, FindWitnessPropertyTest,
                         ::testing::ValuesIn(WitnessCases(CoprimeConfig())));

// Normalizing this tuple whole splits it into 84 * 60 * 35 pieces at period
// 420; the emptiness test and the witness stop the sweep at the first
// feasible one, which is the piece the full sweep would put first.
TEST(FindWitnessTest, CoprimePeriodsStopAtTheFirstPiece) {
  GeneralizedTuple t({Lrp::Make(0, 5), Lrp::Make(0, 7), Lrp::Make(0, 12)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 3);
  t.mutable_constraints().AddDifferenceUpperBound(1, 2, 2);
  Result<bool> empty = TupleIsEmpty(t);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_FALSE(empty.value());
  Result<std::optional<std::vector<std::int64_t>>> point = FirstPoint(t);
  ASSERT_TRUE(point.ok()) << point.status();
  EXPECT_EQ(point.value(), (std::vector<std::int64_t>{0, 0, 0}));
  // The split budget is still checked on the whole product.
  AlgebraOptions small;
  small.max_split_product = 1000;
  Result<bool> over = TupleIsEmpty(t, small);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

// Normalizing either tuple whole, at period 420, exceeds the split budget.
// Their constraint graphs split into independent parts, and each part
// normalizes on its own period.
TEST(FindWitnessTest, IndependentPartsNormalizeApart) {
  // X1 <= X0 - 4 and X2 <= X3 + 5: {X0, X1} at period 60, {X2, X3} at 35.
  GeneralizedTuple pairs({Lrp::Make(3, 5), Lrp::Make(7, 12), Lrp::Make(2, 5),
                          Lrp::Make(6, 7)});
  pairs.mutable_constraints().AddDifferenceUpperBound(1, 0, -4);
  pairs.mutable_constraints().AddDifferenceUpperBound(2, 3, 5);
  // X2 <= X0 + 1 joins {X0, X2} at period 60; X1 and X3 have only bounds.
  GeneralizedTuple bounded({Lrp::Make(0, 5), Lrp::Make(3, 5),
                            Lrp::Make(2, 12), Lrp::Make(2, 7)});
  bounded.mutable_constraints().AddLowerBound(1, 1);
  bounded.mutable_constraints().AddUpperBound(2, -5);
  bounded.mutable_constraints().AddDifferenceUpperBound(2, 0, 1);
  bounded.mutable_constraints().AddUpperBound(3, 0);
  for (const GeneralizedTuple& t : {pairs, bounded}) {
    Result<bool> empty = TupleIsEmpty(t);
    ASSERT_TRUE(empty.ok()) << empty.status() << " for " << t.ToString();
    EXPECT_FALSE(empty.value()) << t.ToString();
    Result<std::optional<std::vector<std::int64_t>>> point = FirstPoint(t);
    ASSERT_TRUE(point.ok()) << point.status() << " for " << t.ToString();
    ASSERT_TRUE(point.value().has_value()) << t.ToString();
    EXPECT_TRUE(t.ContainsTemporal(*point.value())) << t.ToString();
    GeneralizedRelation r(Schema::Temporal(4));
    ASSERT_TRUE(r.AddTuple(t).ok());
    Result<std::optional<ConcreteRow>> row = FindWitness(r);
    ASSERT_TRUE(row.ok()) << row.status() << " for " << t.ToString();
    ASSERT_TRUE(row.value().has_value()) << t.ToString();
    EXPECT_TRUE(r.Contains(*row.value())) << t.ToString();
  }
}

TEST(FindWitnessTest, RelationWitnessCarriesData) {
  Schema schema({"T"}, {"who"}, {DataType::kString});
  GeneralizedRelation r(schema);
  GeneralizedTuple dead({Lrp::Make(0, 4)}, {Value("a")});
  dead.mutable_constraints().AddUpperBound(0, 0);
  dead.mutable_constraints().AddLowerBound(0, 1);
  ASSERT_TRUE(r.AddTuple(std::move(dead)).ok());
  GeneralizedTuple live({Lrp::Make(1, 4)}, {Value("b")});
  ASSERT_TRUE(r.AddTuple(std::move(live)).ok());
  Result<std::optional<ConcreteRow>> w = FindWitness(r);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value().has_value());
  EXPECT_EQ(w.value()->data[0].AsString(), "b");
  EXPECT_TRUE(r.Contains(*w.value()));
}

TEST(ZeroArityTest, EmptinessAndComplement) {
  // Zero-arity relations encode booleans: nonempty == true.
  GeneralizedRelation truth((Schema()));
  ASSERT_TRUE(truth.AddTuple(GeneralizedTuple(std::vector<Lrp>{})).ok());
  EXPECT_FALSE(IsEmpty(truth).value());
  GeneralizedRelation falsity((Schema()));
  EXPECT_TRUE(IsEmpty(falsity).value());
  // Complement flips the boolean.
  Result<GeneralizedRelation> not_true = Complement(truth);
  ASSERT_TRUE(not_true.ok());
  EXPECT_TRUE(IsEmpty(not_true.value()).value());
  Result<GeneralizedRelation> not_false = Complement(falsity);
  ASSERT_TRUE(not_false.ok());
  EXPECT_FALSE(IsEmpty(not_false.value()).value());
  // And double complement round-trips.
  Result<GeneralizedRelation> again = Complement(not_true.value());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(IsEmpty(again.value()).value());
}

TEST(ZeroArityTest, ContradictoryConstraintsDetected) {
  // A zero-variable DBM can only become infeasible through the degenerate
  // ground-contradiction path; emptiness must still be exact.
  GeneralizedTuple t(std::vector<Lrp>{});
  t.mutable_constraints().AddAtomic(AtomicConstraint{kZeroVar, kZeroVar, -1});
  Result<bool> empty = TupleIsEmpty(t);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value());
  EXPECT_FALSE(t.ContainsTemporal({}));
}

TEST(SubsetTest, ResidueContainment) {
  GeneralizedRelation evens = Unary({Lrp::Make(0, 2)});
  GeneralizedRelation mult4 = Unary({Lrp::Make(0, 4)});
  EXPECT_TRUE(Subset(mult4, evens).value());
  EXPECT_FALSE(Subset(evens, mult4).value());
}

TEST(SubsetTest, EmptyIsSubsetOfEverything) {
  GeneralizedRelation empty(Schema::Temporal(1));
  GeneralizedRelation evens = Unary({Lrp::Make(0, 2)});
  EXPECT_TRUE(Subset(empty, evens).value());
  EXPECT_TRUE(Subset(empty, empty).value());
  EXPECT_FALSE(Subset(evens, empty).value());
}

TEST(EquivalentTest, DifferentRepresentationsOfOneSet) {
  // Z as one tuple vs. as residues mod 3.
  GeneralizedRelation whole = Unary({Lrp::Make(0, 1)});
  GeneralizedRelation split =
      Unary({Lrp::Make(0, 3), Lrp::Make(1, 3), Lrp::Make(2, 3)});
  EXPECT_TRUE(Equivalent(whole, split).value());
  GeneralizedRelation missing = Unary({Lrp::Make(0, 3), Lrp::Make(1, 3)});
  EXPECT_FALSE(Equivalent(whole, missing).value());
  EXPECT_TRUE(Subset(missing, whole).value());
}

class EquivalenceChecksEnumerationTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EquivalenceChecksEnumerationTest, SubsetAgreesWithWindowSemantics) {
  RandomRelationConfig cfg;
  GeneralizedRelation a = MakeRandomRelation(GetParam() * 2 + 900, cfg);
  GeneralizedRelation b = MakeRandomRelation(GetParam() * 2 + 901, cfg);
  Result<bool> subset = Subset(a, b);
  ASSERT_TRUE(subset.ok()) << subset.status();
  // Symbolic subset implies window containment; and window violation
  // implies symbolic non-subset.  (The converse needs an unbounded window,
  // so only this direction is asserted.)
  bool window_contained = true;
  for (const ConcreteRow& row : a.Enumerate(-30, 30)) {
    if (!b.Contains(row)) {
      window_contained = false;
      break;
    }
  }
  if (subset.value()) {
    EXPECT_TRUE(window_contained);
  }
  if (!window_contained) {
    EXPECT_FALSE(subset.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceChecksEnumerationTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{25}));

}  // namespace
}  // namespace itdb
