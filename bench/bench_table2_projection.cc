// Table 2, row "Projection": fixed-schema O(N), general O(m^2 N); the
// Appendix A.4 remark that a non-normalized database pays an extra k^m
// normalization factor; and the free and pinned columns that skip it.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"
#include "core/normalize.h"

namespace {

using itdb::AlgebraOptions;
using itdb::GeneralizedRelation;
using itdb::bench::MakeMixedPeriodRelation;
using itdb::bench::MakeNormalizedRelation;

void BM_Projection_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation r = MakeNormalizedRelation(1, n, 2, 12);
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1"});
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Projection_VsN)->RangeMultiplier(2)->Range(64, 4096)->Complexity(
    benchmark::oN);

void BM_Projection_VsArity(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  GeneralizedRelation r = MakeNormalizedRelation(1, 256, m, 12);
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1"});
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_Projection_VsArity)->DenseRange(2, 8)->Complexity(
    benchmark::oNSquared);

void BM_Projection_Normalized(benchmark::State& state) {
  // Baseline: the input is already normalized (all periods 12).
  GeneralizedRelation r = MakeMixedPeriodRelation(7, 256, 2, {12});
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1"});
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_Projection_Normalized);

void BM_Projection_MixedPeriods(benchmark::State& state) {
  // Same tuple count, but periods {3, 4} force a normalization to lcm 12
  // with up to (12/3)*(12/4) = 12 split tuples each: the k^m multiplier.
  GeneralizedRelation r = MakeMixedPeriodRelation(7, 256, 2, {3, 4});
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1"});
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_Projection_MixedPeriods);

void BM_Projection_CoprimePeriods(benchmark::State& state) {
  // Coprime periods {5, 7, 9} push the lcm to 315: the unfavorable case the
  // paper warns about in Section 3.8.
  GeneralizedRelation r = MakeMixedPeriodRelation(7, 256, 2, {5, 7, 9});
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1"});
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_Projection_CoprimePeriods);

// ---- Ablation: partial normalization (Section 3.4, last paragraph). ----
// Three columns; T3 is dropped and constraint-connected to nothing, while
// T1/T2 have large coprime periods.  Partial normalization skips their
// k^m split entirely.

GeneralizedRelation DisconnectedDropRelation() {
  // Periods {14, 6, 4}: full normalization to lcm 84 splits every tuple
  // into 6*14*21 = 1764 pieces; the dropped T3 is constraint-connected to
  // nothing, so partial normalization touches only its period-4 column.
  GeneralizedRelation r(itdb::Schema({"T1", "T2", "T3"}, {}, {}));
  for (int i = 0; i < 16; ++i) {
    itdb::GeneralizedTuple t({itdb::Lrp::Make(i, 14), itdb::Lrp::Make(i, 6),
                              itdb::Lrp::Make(i, 4)});
    t.mutable_constraints().AddDifferenceUpperBound(0, 1, i % 7);
    t.mutable_constraints().AddUpperBound(2, 100);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  return r;
}

void RunProjectionAblation(benchmark::State& state, bool partial) {
  GeneralizedRelation r = DisconnectedDropRelation();
  itdb::AlgebraOptions options;
  options.partial_normalization = partial;
  options.normalize.max_split_product = std::int64_t{1} << 24;
  options.max_tuples = std::int64_t{1} << 26;
  std::int64_t out_tuples = 0;
  for (auto _ : state) {
    auto p = itdb::Project(r, {"T1", "T2"}, options);
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    out_tuples = p.value().size();
    benchmark::DoNotOptimize(p);
  }
  state.counters["result_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
}

void BM_Projection_PartialNormalization(benchmark::State& state) {
  RunProjectionAblation(state, /*partial=*/true);
}
BENCHMARK(BM_Projection_PartialNormalization);

void BM_Projection_FullNormalization(benchmark::State& state) {
  RunProjectionAblation(state, /*partial=*/false);
}
BENCHMARK(BM_Projection_FullNormalization);

// ---- Exact elimination of free and pinned columns. ----
// The Theorem 4.1 shape: a busy interval [S, E] with E = S + 2, both of
// period 32, and an instant T (all of Z) inside it.  Dropping E (pinned to
// S) or T (period 1) is exact on the closed DBM; the Section 3.4 reference
// (partial_normalization = false) normalizes T to period 32 instead.

GeneralizedRelation BusyIntervalRelation() {
  GeneralizedRelation r(itdb::Schema({"S", "E", "T"}, {}, {}));
  for (int i = 0; i < 64; ++i) {
    itdb::GeneralizedTuple t({itdb::Lrp::Make(i % 30, 32),
                              itdb::Lrp::Make(i % 30 + 2, 32),
                              itdb::Lrp::Make(0, 1)});
    t.mutable_constraints().AddDifferenceEquality(1, 0, 2);  // E = S + 2.
    t.mutable_constraints().AddDifferenceUpperBound(0, 2, 0);  // S <= T.
    t.mutable_constraints().AddDifferenceUpperBound(2, 1, 0);  // T <= E.
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  return r;
}

void RunExactDrop(benchmark::State& state,
                  const std::vector<std::string>& attrs, bool exact) {
  GeneralizedRelation r = BusyIntervalRelation();
  itdb::AlgebraOptions options;
  options.partial_normalization = exact;
  std::int64_t out_tuples = 0;
  for (auto _ : state) {
    auto p = itdb::Project(r, attrs, options);
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    out_tuples = p.value().size();
    benchmark::DoNotOptimize(p);
  }
  state.counters["result_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
}

// EXISTS E: E is pinned to S.
void BM_Projection_PinnedDrop_Exact(benchmark::State& state) {
  RunExactDrop(state, {"S", "T"}, /*exact=*/true);
}
BENCHMARK(BM_Projection_PinnedDrop_Exact);

void BM_Projection_PinnedDrop_Full(benchmark::State& state) {
  RunExactDrop(state, {"S", "T"}, /*exact=*/false);
}
BENCHMARK(BM_Projection_PinnedDrop_Full);

// EXISTS T: T has period 1.
void BM_Projection_FreeDrop_Exact(benchmark::State& state) {
  RunExactDrop(state, {"S", "E"}, /*exact=*/true);
}
BENCHMARK(BM_Projection_FreeDrop_Exact);

void BM_Projection_FreeDrop_Full(benchmark::State& state) {
  RunExactDrop(state, {"S", "E"}, /*exact=*/false);
}
BENCHMARK(BM_Projection_FreeDrop_Full);

// The body tuple of the Theorem 4.1 join `ask` over the window [0, 90]:
// two busy intervals [S1, E1], [S2, E2] (E = S + 2, period 32) sharing an
// instant T.  TupleIsEmpty drops T (free) and E1, E2 (pinned) exactly and
// normalizes only S1, S2, which already share period 32; the reference
// normalizes all five columns, splitting T 32 ways.
itdb::GeneralizedTuple JoinBodyTuple() {
  itdb::GeneralizedTuple t(
      {itdb::Lrp::Make(0, 1), itdb::Lrp::Make(3, 32), itdb::Lrp::Make(5, 32),
       itdb::Lrp::Make(20, 32), itdb::Lrp::Make(22, 32)});
  itdb::Dbm& c = t.mutable_constraints();
  c.AddDifferenceEquality(2, 1, 2);       // E1 = S1 + 2.
  c.AddDifferenceEquality(4, 3, 2);       // E2 = S2 + 2.
  c.AddDifferenceUpperBound(1, 0, 0);     // S1 <= T.
  c.AddDifferenceUpperBound(0, 2, 0);     // T <= E1.
  c.AddDifferenceUpperBound(3, 0, 0);     // S2 <= T.
  c.AddDifferenceUpperBound(0, 4, 0);     // T <= E2.
  c.AddLowerBound(0, 0);
  c.AddUpperBound(0, 90);
  return t;
}

void BM_IsEmpty_JoinBody_Exact(benchmark::State& state) {
  const itdb::GeneralizedTuple t = JoinBodyTuple();
  for (auto _ : state) {
    auto empty = itdb::TupleIsEmpty(t);
    if (!empty.ok() || !empty.value()) {
      state.SkipWithError("the join body tuple must be empty");
      return;
    }
    benchmark::DoNotOptimize(empty);
  }
}
BENCHMARK(BM_IsEmpty_JoinBody_Exact);

void BM_IsEmpty_JoinBody_Normalized(benchmark::State& state) {
  const itdb::GeneralizedTuple t = JoinBodyTuple();
  for (auto _ : state) {
    auto normal = itdb::NormalizeTuple(t);
    if (!normal.ok() || !normal.value().empty()) {
      state.SkipWithError("the join body tuple must be empty");
      return;
    }
    benchmark::DoNotOptimize(normal);
  }
}
BENCHMARK(BM_IsEmpty_JoinBody_Normalized);

}  // namespace

ITDB_BENCHMARK_MAIN();
