// The indexed-kernel support layer (core/index.h): the gcd residue-class
// prefilter must agree with Lrp::Intersect emptiness decision for decision,
// the data-key partition must enumerate exactly the matching rows in row
// order, hull disjointness must imply an empty tuple intersection, and the
// indexed Join / Intersect pair scan must produce exactly what a plain pair
// loop produces while charging budgets on candidate pairs only.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random_relations.h"
#include "core/algebra.h"
#include "core/index.h"
#include "core/lrp.h"
#include "core/relation.h"
#include "core/tuple.h"

namespace itdb {
namespace {

using testing_util::MakeRandomRelation;
using testing_util::RandomRelationConfig;

// ---------------------------------------------------------------------------
// LrpIntersectionEmpty.

TEST(LrpIntersectionEmptyTest, AgreesWithIntersectOnGrid) {
  // Offsets include negatives and overflow-adjacent magnitudes (|c| = 2^61;
  // large enough that sloppy prefilter arithmetic would diverge, small
  // enough that Lrp::Contains' subtraction stays in range).  k = 1 rows pin
  // the "gcd is 1, never prune" edge.
  const std::int64_t kBig = std::int64_t{1} << 61;
  const std::int64_t offsets[] = {-kBig, -1000000007, -7, -3, -1, 0,
                                  1,     2,           5,  97, kBig};
  const std::int64_t periods[] = {0, 1, 2, 3, 4, 6, 97};
  for (std::int64_t c1 : offsets) {
    for (std::int64_t k1 : periods) {
      for (std::int64_t c2 : offsets) {
        for (std::int64_t k2 : periods) {
          Lrp a = Lrp::Make(c1, k1);
          Lrp b = Lrp::Make(c2, k2);
          auto meet = Lrp::Intersect(a, b);
          ASSERT_TRUE(meet.ok())
              << a.ToString() << " ^ " << b.ToString() << ": "
              << meet.status();
          EXPECT_EQ(LrpIntersectionEmpty(a, b), !meet.value().has_value())
              << a.ToString() << " ^ " << b.ToString();
        }
      }
    }
  }
}

TEST(LrpIntersectionEmptyTest, PeriodOneNeverPrunesAgainstAnything) {
  Lrp z = Lrp::Make(0, 1);  // All of Z.
  for (std::int64_t c : {std::int64_t{-9}, std::int64_t{0}, std::int64_t{7}}) {
    for (std::int64_t k : {std::int64_t{0}, std::int64_t{1}, std::int64_t{6}}) {
      EXPECT_FALSE(LrpIntersectionEmpty(z, Lrp::Make(c, k)));
      EXPECT_FALSE(LrpIntersectionEmpty(Lrp::Make(c, k), z));
    }
  }
}

TEST(LrpIntersectionEmptyTest, NegativeOffsetCanonicalization) {
  // [-3+2n] canonicalizes to [1+2n]: disjoint from [0+2n], meets [5].
  Lrp odd = Lrp::Make(-3, 2);
  EXPECT_TRUE(LrpIntersectionEmpty(odd, Lrp::Make(0, 2)));
  EXPECT_FALSE(LrpIntersectionEmpty(odd, Lrp::Singleton(5)));
  EXPECT_TRUE(LrpIntersectionEmpty(odd, Lrp::Singleton(-4)));
  EXPECT_FALSE(LrpIntersectionEmpty(odd, Lrp::Singleton(-7)));
}

// ---------------------------------------------------------------------------
// DataKeyIndex.

GeneralizedRelation KeyedRelation(const std::vector<std::int64_t>& keys) {
  GeneralizedRelation r(Schema({"T1"}, {"K"}, {DataType::kInt}));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Status s = r.AddTuple(GeneralizedTuple(
        {Lrp::Singleton(static_cast<std::int64_t>(i))},
        {Value(keys[i])}));
    EXPECT_TRUE(s.ok());
  }
  return r;
}

GeneralizedTuple Probe(std::int64_t key) {
  return GeneralizedTuple({Lrp::Singleton(0)}, {Value(key)});
}

std::vector<std::size_t> ToVec(std::span<const std::size_t> s) {
  return {s.begin(), s.end()};
}

TEST(DataKeyIndexTest, GroupsListIndicesAscending) {
  GeneralizedRelation r = KeyedRelation({1, 2, 1, 3, 1});
  DataKeyIndex index(r, {0});
  EXPECT_EQ(ToVec(index.Candidates(Probe(1), {0})),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(ToVec(index.Candidates(Probe(3), {0})),
            (std::vector<std::size_t>{3}));
  EXPECT_TRUE(index.Candidates(Probe(9), {0}).empty());
}

TEST(DataKeyIndexTest, EmptyKeyDegeneratesToRawProduct) {
  GeneralizedRelation r = KeyedRelation({1, 2, 3});
  DataKeyIndex index(r, {});
  EXPECT_EQ(ToVec(index.Candidates(Probe(99), {})),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(DataKeyIndexTest, EmptyRelationHasNoCandidates) {
  GeneralizedRelation r = KeyedRelation({});
  DataKeyIndex index(r, {0});
  EXPECT_TRUE(index.Candidates(Probe(1), {0}).empty());
  GeneralizedRelation unkeyed = KeyedRelation({});
  DataKeyIndex index2(unkeyed, {});
  EXPECT_TRUE(index2.Candidates(Probe(1), {}).empty());
}

// ---------------------------------------------------------------------------
// TemporalHull / HullsDisjoint.

TEST(TemporalHullTest, ReadsBoundsOffClosedDbm) {
  GeneralizedTuple t({Lrp::Make(0, 2), Lrp::Make(1, 3)});
  t.mutable_constraints().AddLowerBound(0, -4);
  t.mutable_constraints().AddUpperBound(0, 9);
  TemporalHull h = TemporalHull::Of(t);
  ASSERT_TRUE(h.usable());
  EXPECT_FALSE(h.infeasible);
  EXPECT_EQ(h.lo[0], -4);
  EXPECT_EQ(h.hi[0], 9);
  EXPECT_EQ(h.lo[1], -Dbm::kInf);
  EXPECT_EQ(h.hi[1], Dbm::kInf);
}

TEST(TemporalHullTest, InfeasibleConstraintsAreFlagged) {
  GeneralizedTuple t({Lrp::Make(0, 2)});
  t.mutable_constraints().AddLowerBound(0, 3);
  t.mutable_constraints().AddUpperBound(0, 1);
  TemporalHull h = TemporalHull::Of(t);
  EXPECT_FALSE(h.usable());
  EXPECT_TRUE(h.infeasible);
  EXPECT_FALSE(h.close_failed);
}

TEST(TemporalHullTest, DisjointHullsImplyEmptyIntersection) {
  GeneralizedTuple a({Lrp::Make(0, 1)});
  a.mutable_constraints().AddLowerBound(0, 0);
  a.mutable_constraints().AddUpperBound(0, 5);
  GeneralizedTuple b({Lrp::Make(0, 1)});
  b.mutable_constraints().AddLowerBound(0, 10);
  b.mutable_constraints().AddUpperBound(0, 20);
  TemporalHull ha = TemporalHull::Of(a);
  TemporalHull hb = TemporalHull::Of(b);
  ASSERT_TRUE(ha.usable());
  ASSERT_TRUE(hb.usable());
  EXPECT_TRUE(HullsDisjoint(ha, hb, {{0, 0}}));
  auto meet = GeneralizedTuple::Intersect(a, b);
  ASSERT_TRUE(meet.ok());
  EXPECT_FALSE(meet.value().has_value());
}

TEST(TemporalHullTest, UnboundedHullsNeverPrune) {
  GeneralizedTuple a({Lrp::Make(0, 2)});
  GeneralizedTuple b({Lrp::Make(1, 2)});
  TemporalHull ha = TemporalHull::Of(a);
  TemporalHull hb = TemporalHull::Of(b);
  EXPECT_FALSE(HullsDisjoint(ha, hb, {{0, 0}}));
}

// ---------------------------------------------------------------------------
// Indexed kernels vs a plain pair loop on relations with data columns.

// The pair loop of Sections 3.2.2 and 3.7, with a's rows outer: per matched
// column Lrp::Intersect, then Dbm::Conjoin + Close.  Every data column is
// shared; b's temporal column j lands on output column b_temporal[j], and
// columns below a's arity are a's own.
Result<std::vector<GeneralizedTuple>> PairLoop(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<int>& b_temporal, int m_out) {
  const int ma = a.schema().temporal_arity();
  std::vector<GeneralizedTuple> out;
  for (const GeneralizedTuple& ta : a.tuples()) {
    for (const GeneralizedTuple& tb : b.tuples()) {
      if (ta.data() != tb.data()) continue;
      std::vector<Lrp> lrps = ta.temporal();
      lrps.resize(static_cast<std::size_t>(m_out));
      bool disjoint = false;
      for (int j = 0; j < tb.temporal_arity() && !disjoint; ++j) {
        const int col = b_temporal[static_cast<std::size_t>(j)];
        Lrp& target = lrps[static_cast<std::size_t>(col)];
        if (col >= ma) {
          target = tb.lrp(j);
          continue;
        }
        ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> meet,
                              Lrp::Intersect(ta.lrp(col), tb.lrp(j)));
        disjoint = !meet.has_value();
        if (!disjoint) target = *meet;
      }
      if (disjoint) continue;
      Dbm merged =
          Dbm::Conjoin(ta.constraints().AppendVariables(m_out - ma),
                       tb.constraints().MapVariables(b_temporal, m_out));
      ITDB_RETURN_IF_ERROR(merged.Close());
      if (!merged.feasible()) continue;
      GeneralizedTuple t(std::move(lrps), ta.data());
      t.set_constraints(std::move(merged));
      out.push_back(std::move(t));
    }
  }
  return out;
}

TEST(IndexedKernelsTest, BitIdenticalToNaiveOnRandomKeyedRelations) {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 2;
  cfg.num_tuples = 12;
  cfg.data_values = {Value(std::int64_t{0}), Value(std::int64_t{1}),
                     Value(std::int64_t{2})};
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    GeneralizedRelation a = MakeRandomRelation(seed, cfg);
    GeneralizedRelation b = MakeRandomRelation(seed + 1000, cfg);
    // Intersect: every column shared, position for position.
    auto want_i = PairLoop(a, b, {0, 1}, 2);
    ASSERT_TRUE(want_i.ok()) << "seed " << seed << ": " << want_i.status();
    auto got_i = Intersect(a, b);
    ASSERT_TRUE(got_i.ok()) << "Intersect seed " << seed;
    EXPECT_EQ(got_i->tuples(), *want_i) << "Intersect seed " << seed;
    // Join sharing the first temporal column and the data column; b's
    // second temporal column is new and lands after a's.
    const std::string t2 = b.schema().temporal_name(1);
    GeneralizedRelation b_renamed = Rename(b, {{t2, t2 + "b"}}).value();
    auto want_j = PairLoop(a, b_renamed, {0, 2}, 3);
    ASSERT_TRUE(want_j.ok()) << "seed " << seed << ": " << want_j.status();
    auto got_j = Join(a, b_renamed);
    ASSERT_TRUE(got_j.ok()) << "Join seed " << seed;
    EXPECT_EQ(got_j->schema().temporal_arity(), 3);
    EXPECT_EQ(got_j->tuples(), *want_j) << "Join seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Budgets charge candidate pairs after partitioning; counters fill in.

TEST(IndexedKernelsTest, BudgetChargesCandidatePairsNotRawProduct) {
  // 100 x 100 tuples, every key distinct within each relation and shared
  // one-to-one across them: 10000 raw pairs but only 100 candidates.
  std::vector<std::int64_t> keys(100);
  for (int i = 0; i < 100; ++i) keys[static_cast<std::size_t>(i)] = i;
  GeneralizedRelation a = KeyedRelation(keys);
  GeneralizedRelation b = KeyedRelation(keys);
  AlgebraOptions options;
  options.max_tuples = 500;
  KernelCounters counters;
  options.counters = &counters;
  auto indexed = Intersect(a, b, options);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(indexed.value().size(), 100u);
  // The raw product alone would have tripped the budget.
  EXPECT_EQ(counters.pairs_total.load(), 10000);
  EXPECT_GT(counters.pairs_total.load(), options.max_tuples);
  EXPECT_EQ(counters.pairs_candidate.load(), 100);
}

TEST(IndexedKernelsTest, CountersRecordPrefilterPrunes) {
  // Same key everywhere, but disjoint residue classes: every candidate pair
  // must be pruned by the gcd prefilter, none by the hull.
  GeneralizedRelation a(Schema({"T1"}, {"K"}, {DataType::kInt}));
  GeneralizedRelation b(Schema({"T1"}, {"K"}, {DataType::kInt}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        a.AddTuple(GeneralizedTuple({Lrp::Make(0, 2)}, {Value(std::int64_t{7})}))
            .ok());
    ASSERT_TRUE(
        b.AddTuple(GeneralizedTuple({Lrp::Make(1, 2)}, {Value(std::int64_t{7})}))
            .ok());
  }
  AlgebraOptions options;
  KernelCounters counters;
  options.counters = &counters;
  auto meet = Intersect(a, b, options);
  ASSERT_TRUE(meet.ok());
  EXPECT_EQ(meet.value().size(), 0u);
  EXPECT_EQ(counters.pairs_candidate.load(), 16);
  EXPECT_EQ(counters.pairs_pruned_residue.load(), 16);
  EXPECT_EQ(counters.pairs_pruned_hull.load(), 0);
}

// ---------------------------------------------------------------------------
// Overflow edge: bounds near Dbm::kBoundLimit.  Intersect runs Join's pair
// kernel, so both must report the same status and representation whichever
// closure overflows, at any thread count.

void ExpectSame(const GeneralizedRelation& want,
                const GeneralizedRelation& got, const char* what) {
  EXPECT_EQ(want.schema(), got.schema()) << what;
  EXPECT_EQ(want.tuples(), got.tuples()) << what;
}

// One keyed tuple [0+n, 0+n] over (T1, T2 | K) with the given atomics:
// {lhs, rhs, bound} means T(lhs+1) - T(rhs+1) <= bound, -1 the zero node.
GeneralizedTuple EdgeTuple(std::int64_t key,
                           const std::vector<AtomicConstraint>& atomics) {
  GeneralizedTuple t({Lrp::Make(0, 1), Lrp::Make(0, 1)}, {Value(key)});
  Dbm c(2);
  for (const AtomicConstraint& a : atomics) c.AddAtomic(a);
  t.set_constraints(std::move(c));
  return t;
}

GeneralizedRelation EdgeRelation(
    const std::vector<std::vector<AtomicConstraint>>& per_key) {
  GeneralizedRelation r(Schema({"T1", "T2"}, {"K"}, {DataType::kInt}));
  for (std::size_t k = 0; k < per_key.size(); ++k) {
    EXPECT_TRUE(
        r.AddTuple(EdgeTuple(static_cast<std::int64_t>(k), per_key[k])).ok());
  }
  return r;
}

TEST(IndexedKernelsTest, OverflowEdgeAgreesAcrossKernels) {
  constexpr std::int64_t kBig = 3 * (Dbm::kBoundLimit / 4);
  // T1 - T2 <= kBig and T2 <= kBig close to T1 <= 1.5 kBoundLimit: overflow.
  const std::vector<AtomicConstraint> chain = {{0, 1, kBig},
                                               {1, kZeroVar, kBig}};
  const std::vector<AtomicConstraint> small = {{0, kZeroVar, 10}};
  const std::vector<AtomicConstraint> diff_only = {{0, 1, kBig}};
  const std::vector<AtomicConstraint> upper_only = {{1, kZeroVar, kBig}};
  struct Case {
    const char* name;
    GeneralizedRelation a;
    GeneralizedRelation b;
    StatusCode want;
  };
  const std::vector<Case> cases = {
      // a's own closure overflows; T1 <= 10 caps the conjunction.
      {"only a", EdgeRelation({chain, small}), EdgeRelation({small, small}),
       StatusCode::kOk},
      // b's own closure overflows; b's atomics tighten a's closed matrix.
      {"only b", EdgeRelation({small, small}), EdgeRelation({chain, small}),
       StatusCode::kOk},
      // Each side closes in range; their conjunction does not.
      {"only the conjunction", EdgeRelation({small, diff_only}),
       EdgeRelation({small, upper_only}), StatusCode::kOverflow},
  };
  for (const Case& c : cases) {
    std::optional<GeneralizedRelation> first;
    for (bool join : {false, true}) {
      auto r = join ? Join(c.a, c.b, {}) : Intersect(c.a, c.b, {});
      const std::string where =
          std::string(c.name) + (join ? " Join" : " Intersect");
      ASSERT_EQ(r.status().code(), c.want) << where << ": " << r.status();
      if (!r.ok()) continue;
      EXPECT_EQ(r.value().size(), 2u) << where;
      if (!first.has_value()) {
        first = r.value();
      } else {
        ExpectSame(*first, r.value(), where.c_str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ConjoinOntoClosed.

TEST(ConjoinOntoClosedTest, MatchesNaiveConjoinPlusClose) {
  RandomRelationConfig cfg;
  cfg.temporal_arity = 3;
  cfg.num_tuples = 24;
  cfg.max_constraints = 4;
  GeneralizedRelation r = MakeRandomRelation(77, cfg);
  KernelCounters counters;
  for (std::size_t i = 0; i + 1 < static_cast<std::size_t>(r.size());
       i += 2) {
    const GeneralizedTuple& t1 = r.tuples()[i];
    const GeneralizedTuple& t2 = r.tuples()[i + 1];
    Dbm base = t1.constraints();
    ASSERT_TRUE(base.Close().ok());
    if (!base.feasible()) continue;
    Dbm naive = Dbm::Conjoin(base, t2.constraints());
    Status naive_status = naive.Close();
    auto fast = ConjoinOntoClosed(base, t2.constraints(), &counters);
    ASSERT_EQ(naive_status.ok(), fast.ok()) << "pair " << i;
    if (!naive_status.ok()) continue;
    EXPECT_EQ(fast.value().feasible(), naive.feasible()) << "pair " << i;
    if (naive.feasible()) {
      EXPECT_EQ(fast.value(), naive) << "pair " << i;
    }
  }
  EXPECT_GT(counters.closures_incremental.load() +
                counters.closures_full.load(),
            0);
}

}  // namespace
}  // namespace itdb
