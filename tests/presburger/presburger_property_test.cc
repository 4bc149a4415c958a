// Randomized Theorem 2.1 / 2.2 sweeps: arbitrary boolean combinations of
// random basic Presburger formulas must translate into relations whose
// extensions match direct formula evaluation on a window.

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "presburger/to_relation.h"

namespace itdb {
namespace presburger {
namespace {

constexpr std::int64_t kWindow = 12;

FormulaPtr RandomAtom(std::mt19937& rng, int max_var) {
  std::uniform_int_distribution<int> kind_pick(0, 3);
  std::uniform_int_distribution<std::int64_t> coeff_pick(-3, 3);
  std::uniform_int_distribution<std::int64_t> const_pick(-6, 6);
  std::uniform_int_distribution<std::int64_t> mod_pick(1, 6);
  std::uniform_int_distribution<int> var_pick(0, max_var);
  std::uniform_int_distribution<int> cmp_pick(0, 2);
  std::int64_t k1 = coeff_pick(rng);
  if (k1 == 0) k1 = 1;
  Cmp cmp = static_cast<Cmp>(cmp_pick(rng));
  int v1 = var_pick(rng);
  switch (kind_pick(rng)) {
    case 0:
      return Formula::UnaryCmp(k1, v1, cmp, const_pick(rng));
    case 1:
      return Formula::UnaryCong(k1, v1, mod_pick(rng), const_pick(rng));
    case 2: {
      if (max_var == 0) return Formula::UnaryCmp(k1, v1, cmp, const_pick(rng));
      std::int64_t k2 = coeff_pick(rng);
      if (k2 == 0) k2 = -1;
      int v2 = 1 - v1;
      return Formula::BinaryCmp(k1, v1, cmp, k2, v2, const_pick(rng));
    }
    default: {
      if (max_var == 0) {
        return Formula::UnaryCong(k1, v1, mod_pick(rng), const_pick(rng));
      }
      std::int64_t k2 = coeff_pick(rng);
      if (k2 == 0) k2 = 1;
      int v2 = 1 - v1;
      return Formula::BinaryCong(k1, v1, mod_pick(rng), k2, v2,
                                 const_pick(rng));
    }
  }
}

FormulaPtr RandomFormula(std::mt19937& rng, int max_var, int depth) {
  if (depth == 0) return RandomAtom(rng, max_var);
  std::uniform_int_distribution<int> pick(0, 3);
  switch (pick(rng)) {
    case 0:
      return Formula::And(RandomFormula(rng, max_var, depth - 1),
                          RandomFormula(rng, max_var, depth - 1));
    case 1:
      return Formula::Or(RandomFormula(rng, max_var, depth - 1),
                         RandomFormula(rng, max_var, depth - 1));
    case 2:
      return Formula::Not(RandomFormula(rng, max_var, depth - 1));
    default:
      return RandomAtom(rng, max_var);
  }
}

class UnarySweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UnarySweepTest, TranslationMatchesEvaluation) {
  std::mt19937 rng(GetParam());
  FormulaPtr f = RandomFormula(rng, /*max_var=*/0, /*depth=*/3);
  AlgebraOptions options;
  options.max_split_product = std::int64_t{1} << 24;
  options.max_tuples = std::int64_t{1} << 24;
  Result<GeneralizedRelation> r = UnaryToRelation(f, options);
  ASSERT_TRUE(r.ok()) << r.status() << " for " << f->ToString();
  std::set<std::int64_t> expect;
  for (std::int64_t x = -kWindow; x <= kWindow; ++x) {
    if (f->Evaluate({x})) expect.insert(x);
  }
  std::set<std::int64_t> got;
  for (const ConcreteRow& row : r.value().Enumerate(-kWindow, kWindow)) {
    got.insert(row.temporal[0]);
  }
  EXPECT_EQ(got, expect) << f->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnarySweepTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{50}));

class BinarySweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BinarySweepTest, TranslationMatchesEvaluation) {
  std::mt19937 rng(GetParam() + 999);
  FormulaPtr f = RandomFormula(rng, /*max_var=*/1, /*depth=*/3);
  Result<GeneralRelation> r = BinaryToGeneralRelation(f);
  ASSERT_TRUE(r.ok()) << r.status() << " for " << f->ToString();
  std::set<std::vector<std::int64_t>> expect;
  for (std::int64_t x = -kWindow; x <= kWindow; ++x) {
    for (std::int64_t y = -kWindow; y <= kWindow; ++y) {
      if (f->Evaluate({x, y})) expect.insert({x, y});
    }
  }
  std::set<std::vector<std::int64_t>> got;
  for (const std::vector<std::int64_t>& p :
       r.value().Enumerate(-kWindow, kWindow)) {
    got.insert(p);
  }
  EXPECT_EQ(got, expect) << f->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinarySweepTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{50}));

}  // namespace
}  // namespace presburger
}  // namespace itdb
