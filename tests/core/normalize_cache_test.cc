// Normalization edge cases (split-budget exhaustion, all-constant tuples)
// and the normalization memo-cache: cached results equal uncached ones
// tuple for tuple, and one cache serves every operation of an options
// struct.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "core/algebra.h"
#include "core/normalize.h"
#include "core/normalize_cache.h"

namespace itdb {
namespace {

using testing_util::MakeRandomRelation;
using testing_util::RandomRelationConfig;

// ---------------------------------------------------------------------------
// NormalizeTupleToPeriod edge cases.

TEST(NormalizeEdgeTest, SplitBudgetExhaustion) {
  // Periods {6, 10, 15}: lcm 30, split product (30/6)*(30/10)*(30/15) = 30.
  GeneralizedTuple t(
      {Lrp::Make(1, 6), Lrp::Make(3, 10), Lrp::Make(7, 15)});
  NormalizeOptions options;
  options.max_split_product = 29;
  auto result = NormalizeTupleToPeriod(t, 30, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  options.max_split_product = 30;
  auto fits = NormalizeTupleToPeriod(t, 30, options);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits.value().size(), 30u);
}

TEST(NormalizeEdgeTest, AllConstantTupleIsItsOwnNormalForm) {
  GeneralizedTuple t({Lrp::Singleton(5), Lrp::Singleton(-3)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 10);
  auto result = NormalizeTuple(t, NormalizeOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().front().ToString(), t.ToString());
}

TEST(NormalizeEdgeTest, AllConstantContradictionPrunesToNothing) {
  GeneralizedTuple t({Lrp::Singleton(5), Lrp::Singleton(-3)});
  t.mutable_constraints().AddDifferenceUpperBound(0, 1, 0);  // 5 - -3 <= 0.
  auto result = NormalizeTuple(t, NormalizeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

// ---------------------------------------------------------------------------
// Normalization memo-cache.

TEST(NormalizeCacheTest, CachedResultsMatchUncachedTupleForTuple) {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 2;
  cfg.num_tuples = 8;
  NormalizeCache cache;
  NormalizeOptions options;
  for (std::uint32_t seed = 300; seed < 305; ++seed) {
    GeneralizedRelation r = MakeRandomRelation(seed, cfg);
    // Two passes so the second one hits.
    for (int pass = 0; pass < 2; ++pass) {
      for (const GeneralizedTuple& t : r.tuples()) {
        auto plain = NormalizeTuple(t, options);
        auto cached = CachedNormalizeTuple(&cache, t, options);
        ASSERT_EQ(plain.ok(), cached.ok());
        if (!plain.ok()) continue;
        ASSERT_EQ(plain.value().size(), cached.value().size());
        for (std::size_t i = 0; i < plain.value().size(); ++i) {
          EXPECT_EQ(plain.value()[i], cached.value()[i])
              << "seed " << seed << " tuple " << t.ToString();
        }
      }
    }
  }
  NormalizeCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(NormalizeCacheTest, RepeatedShapeHitsOncePerDistinctShape) {
  NormalizeCache cache;
  NormalizeOptions options;
  GeneralizedTuple t({Lrp::Make(1, 2), Lrp::Make(0, 3)});
  for (int i = 0; i < 5; ++i) {
    auto result = cache.Normalize(t, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().size(), 6u);  // Splits 3 * 2 to period 6.
  }
  NormalizeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(NormalizeCacheTest, DataValuesShareOneShapeEntry) {
  // Same lrps and constraints, different data: one cache entry serves both,
  // and each result carries its own data back.
  NormalizeCache cache;
  NormalizeOptions options;
  GeneralizedTuple t1({Lrp::Make(0, 2)}, {Value(std::int64_t{1})});
  GeneralizedTuple t2({Lrp::Make(0, 2)}, {Value(std::int64_t{2})});
  auto r1 = cache.NormalizeToPeriod(t1, 4, options);
  auto r2 = cache.NormalizeToPeriod(t2, 4, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1.value().size(), 2u);
  ASSERT_EQ(r2.value().size(), 2u);
  EXPECT_EQ(r1.value()[0].value(0), Value(std::int64_t{1}));
  EXPECT_EQ(r2.value()[0].value(0), Value(std::int64_t{2}));
  NormalizeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(NormalizeCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  NormalizeCache cache(/*capacity=*/2);
  NormalizeOptions options;
  GeneralizedTuple a({Lrp::Make(0, 2)});
  GeneralizedTuple b({Lrp::Make(0, 3)});
  GeneralizedTuple c({Lrp::Make(0, 5)});
  ASSERT_TRUE(cache.NormalizeToPeriod(a, 4, options).ok());   // miss {a}
  ASSERT_TRUE(cache.NormalizeToPeriod(b, 6, options).ok());   // miss {a,b}
  ASSERT_TRUE(cache.NormalizeToPeriod(a, 4, options).ok());   // hit  {b,a}
  ASSERT_TRUE(cache.NormalizeToPeriod(c, 10, options).ok());  // miss evicts b
  ASSERT_TRUE(cache.NormalizeToPeriod(b, 6, options).ok());   // miss again
  NormalizeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(NormalizeCacheTest, InfeasibleClosedConstraintsShortCircuit) {
  NormalizeCache cache;
  NormalizeOptions options;
  GeneralizedTuple t({Lrp::Make(0, 2)});
  t.mutable_constraints().AddUpperBound(0, -1);
  t.mutable_constraints().AddLowerBound(0, 1);  // x <= -1 and x >= 1.
  auto result = cache.NormalizeToPeriod(t, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  // The fast path answers from the closure alone; nothing is cached.
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(NormalizeCacheTest, NullCacheFallsThroughToPlainFunctions) {
  GeneralizedTuple t({Lrp::Make(1, 2), Lrp::Make(0, 3)});
  NormalizeOptions options;
  auto plain = NormalizeTuple(t, options);
  auto through = CachedNormalizeTuple(nullptr, t, options);
  ASSERT_TRUE(plain.ok() && through.ok());
  EXPECT_EQ(plain.value(), through.value());
}

TEST(NormalizeCacheTest, AlgebraSharesOneCacheAcrossOperations) {
  // The same relation complemented twice through one options struct: the
  // second run's normalizations should all hit.
  RandomRelationConfig cfg;
  cfg.temporal_arity = 2;
  cfg.num_tuples = 4;
  cfg.periods = {0, 2, 4};
  GeneralizedRelation r = MakeRandomRelation(400, cfg);
  NormalizeCache cache;
  AlgebraOptions options;
  options.normalize_cache = &cache;
  auto first = Complement(r, options);
  ASSERT_TRUE(first.ok());
  NormalizeCache::Stats after_first = cache.stats();
  auto second = Complement(r, options);
  ASSERT_TRUE(second.ok());
  NormalizeCache::Stats after_second = cache.stats();
  EXPECT_EQ(first.value().ToString(), second.value().ToString());
  EXPECT_EQ(after_second.misses, after_first.misses);  // No new misses.
  EXPECT_GE(after_second.hits, after_first.hits);
  // And the cache is semantically inert: same output as no cache at all.
  auto plain = Complement(r, AlgebraOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().ToString(), first.value().ToString());
}

}  // namespace
}  // namespace itdb
