// Randomized properties of Theorem 3.2 normalization:
//   * the normal-form set represents exactly the original extension;
//   * every output tuple is in normal form with the tuple's lcm period;
//   * the free extensions of the outputs are pairwise disjoint (the cross
//     product of Lemma 3.1 splits partitions the original lattice);
//   * every output is feasible (step 4 pruned the contradictions);
//   * the hoisted sweep keeps exactly the split cross-product candidates
//     that NSpaceTuple::Build finds feasible, in odometer order, and fails
//     with Build's status when a candidate's translation fails.

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "core/normalize.h"
#include "core/normalize_cache.h"

namespace itdb {
namespace {

using testing_util::MakeRandomRelation;
using testing_util::RandomRelationConfig;

class NormalizePropertyTest : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(NormalizePropertyTest, NormalFormInvariants) {
  RandomRelationConfig cfg;
  cfg.num_tuples = 4;
  cfg.periods = {0, 1, 2, 3, 4, 6};
  GeneralizedRelation r = MakeRandomRelation(GetParam() + 4200, cfg);
  for (const GeneralizedTuple& t : r.tuples()) {
    Result<std::vector<GeneralizedTuple>> normal = NormalizeTuple(t);
    ASSERT_TRUE(normal.ok()) << normal.status() << " for " << t.ToString();
    Result<std::int64_t> k = CommonPeriod(t);
    ASSERT_TRUE(k.ok());

    // (1) Same extension on a window.
    std::set<std::vector<std::int64_t>> original;
    for (const std::vector<std::int64_t>& p : t.EnumerateTemporal(-20, 20)) {
      original.insert(p);
    }
    std::set<std::vector<std::int64_t>> rebuilt;
    for (const GeneralizedTuple& nt : normal.value()) {
      // (2) Normal form with the right period.
      std::int64_t period = 0;
      EXPECT_TRUE(IsNormalForm(nt, &period)) << nt.ToString();
      bool all_const = true;
      for (const Lrp& l : nt.temporal()) {
        if (l.period() != 0) all_const = false;
      }
      if (!all_const) {
        EXPECT_EQ(period, k.value()) << nt.ToString();
      }
      // (4) Feasible.
      Result<NSpaceTuple> ns = NSpaceTuple::Build(nt);
      ASSERT_TRUE(ns.ok());
      EXPECT_TRUE(ns.value().feasible()) << nt.ToString();
      for (const std::vector<std::int64_t>& p :
           nt.EnumerateTemporal(-20, 20)) {
        // (3) Disjoint free extensions: no point seen twice.
        EXPECT_TRUE(rebuilt.insert(p).second)
            << "duplicate point in normal form of " << t.ToString();
      }
    }
    EXPECT_EQ(rebuilt, original) << t.ToString();
  }
}

TEST_P(NormalizePropertyTest, ExplicitPeriodMultiplesAlsoWork) {
  RandomRelationConfig cfg;
  cfg.num_tuples = 2;
  cfg.periods = {1, 2, 3};
  GeneralizedRelation r = MakeRandomRelation(GetParam() + 7700, cfg);
  for (const GeneralizedTuple& t : r.tuples()) {
    Result<std::int64_t> k = CommonPeriod(t);
    ASSERT_TRUE(k.ok());
    // Normalize to twice the natural period: still exact.
    Result<std::vector<GeneralizedTuple>> normal =
        NormalizeTupleToPeriod(t, k.value() * 2);
    ASSERT_TRUE(normal.ok()) << normal.status();
    std::set<std::vector<std::int64_t>> original;
    for (const std::vector<std::int64_t>& p : t.EnumerateTemporal(-15, 15)) {
      original.insert(p);
    }
    std::set<std::vector<std::int64_t>> rebuilt;
    for (const GeneralizedTuple& nt : normal.value()) {
      for (const std::vector<std::int64_t>& p :
           nt.EnumerateTemporal(-15, 15)) {
        rebuilt.insert(p);
      }
    }
    EXPECT_EQ(rebuilt, original) << t.ToString();
  }
}

/// The reference for NormalizeTupleToPeriod: walk the cross product of the
/// Lemma 3.1 splits in odometer order (last column least significant) and
/// keep every candidate NSpaceTuple::Build finds feasible.  The first
/// candidate whose Build fails decides the status.
Result<std::vector<GeneralizedTuple>> ReferenceSweep(const GeneralizedTuple& t,
                                                     std::int64_t period) {
  const int m = t.temporal_arity();
  std::vector<std::vector<Lrp>> choices;
  for (int i = 0; i < m; ++i) {
    if (t.lrp(i).period() == 0) {
      choices.push_back({t.lrp(i)});
    } else {
      ITDB_ASSIGN_OR_RETURN(std::vector<Lrp> split,
                            t.lrp(i).SplitToPeriod(period));
      choices.push_back(std::move(split));
    }
  }
  std::vector<GeneralizedTuple> out;
  std::vector<std::size_t> digits(static_cast<std::size_t>(m), 0);
  while (true) {
    std::vector<Lrp> lrps;
    for (int i = 0; i < m; ++i) {
      lrps.push_back(choices[static_cast<std::size_t>(i)]
                            [digits[static_cast<std::size_t>(i)]]);
    }
    GeneralizedTuple candidate(std::move(lrps), t.data());
    candidate.set_constraints(t.constraints());
    ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(candidate));
    if (ns.feasible()) out.push_back(std::move(candidate));
    int i = m - 1;
    for (; i >= 0; --i) {
      std::size_t& d = digits[static_cast<std::size_t>(i)];
      if (++d < choices[static_cast<std::size_t>(i)].size()) break;
      d = 0;
    }
    if (i < 0) return out;
  }
}

TEST_P(NormalizePropertyTest, SweepMatchesPerCandidateBuild) {
  RandomRelationConfig cfg;
  cfg.num_tuples = 4;
  cfg.periods = {0, 1, 2, 3, 4, 6};
  GeneralizedRelation r = MakeRandomRelation(GetParam() + 9100, cfg);
  for (const GeneralizedTuple& t : r.tuples()) {
    Result<std::int64_t> k = CommonPeriod(t);
    ASSERT_TRUE(k.ok());
    Result<std::vector<GeneralizedTuple>> want = ReferenceSweep(t, *k);
    ASSERT_TRUE(want.ok()) << want.status() << " for " << t.ToString();
    Result<std::vector<GeneralizedTuple>> got = NormalizeTupleToPeriod(t, *k);
    ASSERT_TRUE(got.ok()) << got.status() << " for " << t.ToString();
    EXPECT_EQ(*got, *want) << t.ToString();
  }
}

// The first-piece scan returns NormalizeTuple's front, or nothing when the
// full sweep returns nothing -- plainly, through a cache that misses (and
// must not be filled by it), and through one the full sweep filled.
TEST_P(NormalizePropertyTest, FirstPieceIsTheSweepsFront) {
  RandomRelationConfig cfg;
  cfg.num_tuples = 4;
  cfg.periods = {0, 1, 2, 3, 4, 6};
  GeneralizedRelation r = MakeRandomRelation(GetParam() + 9900, cfg);
  for (const GeneralizedTuple& t : r.tuples()) {
    Result<std::vector<GeneralizedTuple>> all = NormalizeTuple(t);
    ASSERT_TRUE(all.ok()) << all.status() << " for " << t.ToString();
    std::optional<GeneralizedTuple> want;
    if (!all->empty()) want = all->front();
    NormalizeCache cache;
    for (int pass = 0; pass < 3; ++pass) {
      Result<std::optional<GeneralizedTuple>> got =
          pass == 0 ? FirstNormalPiece(t) : CachedFirstNormalPiece(&cache, t, {});
      ASSERT_TRUE(got.ok()) << got.status() << " for " << t.ToString();
      EXPECT_EQ(*got, want) << "pass " << pass << " " << t.ToString();
      if (pass == 1) {
        EXPECT_EQ(cache.stats().entries, 0u) << t.ToString();
        ASSERT_TRUE(CachedNormalizeTuple(&cache, t, {}).ok());
      }
    }
    // Infeasible constraints answer before the lookup.
    Dbm closed = t.constraints();
    ASSERT_TRUE(closed.Close().ok());
    EXPECT_EQ(cache.stats().hits, closed.feasible() ? 1u : 0u) << t.ToString();
  }
}

TEST(NormalizeSweepTest, TranslationOverflowReturnsBuildStatus) {
  // Column 0 is the constant -(2^63 - 8); X0 <= 100 holds and closes fine
  // in X-space, but its n-space bound 100 - c_0 leaves int64 in every
  // candidate.
  GeneralizedTuple t({Lrp::Singleton(std::numeric_limits<std::int64_t>::min() +
                                     8),
                      Lrp::Make(0, 2), Lrp::Make(1, 3)});
  t.mutable_constraints().AddUpperBound(0, 100);
  t.mutable_constraints().AddDifferenceUpperBound(1, 2, 5);
  Result<std::vector<GeneralizedTuple>> want = ReferenceSweep(t, 6);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().code(), StatusCode::kOverflow);
  Result<std::vector<GeneralizedTuple>> got = NormalizeTupleToPeriod(t, 6);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), want.status().code());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizePropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{30}));

}  // namespace
}  // namespace itdb
