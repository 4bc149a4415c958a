// Table 2, rows "Cross-product", "Intersection", "Join": fixed-schema
// O(N^2), general O(m^2 N^2).  Intersection and join run the one indexed
// pair kernel; with no shared data column its partition is a single bucket,
// so every pair is still visited and the rows keep the paper's N^2 shape.
//
// Also demonstrates the paper's density remark for intersection (Appendix
// A.3): with uniformly distributed residues, only ~N^2/k^m tuple pairs have
// a nonempty intersection, so larger periods make intersection cheaper at
// equal N.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"

namespace {

using itdb::AlgebraOptions;
using itdb::GeneralizedRelation;
using itdb::GeneralizedTuple;
using itdb::KernelCounters;
using itdb::bench::MakeKeyedRelation;
using itdb::bench::MakeNormalizedRelation;

AlgebraOptions BigBudget() {
  AlgebraOptions options;
  options.max_tuples = std::int64_t{1} << 26;
  return options;
}

void BM_Intersect_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = MakeNormalizedRelation(1, n, 2, 12);
  GeneralizedRelation b = MakeNormalizedRelation(2, n, 2, 12);
  AlgebraOptions options = BigBudget();
  for (auto _ : state) {
    auto r = itdb::Intersect(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Intersect_VsN)->RangeMultiplier(2)->Range(32, 1024)->Complexity(
    benchmark::oNSquared);

void BM_Intersect_DensityEffect(benchmark::State& state) {
  // Same N, growing period k: the number of surviving tuples falls as
  // N^2 / k^m (uniform residues).
  const std::int64_t k = state.range(0);
  GeneralizedRelation a = MakeNormalizedRelation(1, 256, 2, k);
  GeneralizedRelation b = MakeNormalizedRelation(2, 256, 2, k);
  AlgebraOptions options = BigBudget();
  std::int64_t result_tuples = 0;
  for (auto _ : state) {
    auto r = itdb::Intersect(a, b, options);
    if (r.ok()) result_tuples = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_tuples"] =
      benchmark::Counter(static_cast<double>(result_tuples));
}
BENCHMARK(BM_Intersect_DensityEffect)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(
    32);

void BM_CrossProduct_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a0 = MakeNormalizedRelation(1, n, 2, 12);
  GeneralizedRelation b0 = MakeNormalizedRelation(2, n, 2, 12);
  GeneralizedRelation a =
      itdb::Rename(a0, {{"T1", "A1"}, {"T2", "A2"}}).value();
  GeneralizedRelation b =
      itdb::Rename(b0, {{"T1", "B1"}, {"T2", "B2"}}).value();
  AlgebraOptions options = BigBudget();
  for (auto _ : state) {
    auto r = itdb::CrossProduct(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CrossProduct_VsN)->RangeMultiplier(2)->Range(32, 512)->Complexity(
    benchmark::oNSquared);

void BM_Join_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a0 = MakeNormalizedRelation(1, n, 2, 12);
  GeneralizedRelation b0 = MakeNormalizedRelation(2, n, 2, 12);
  // Share one attribute: natural join on "T".
  GeneralizedRelation a = itdb::Rename(a0, {{"T1", "T"}, {"T2", "A"}}).value();
  GeneralizedRelation b = itdb::Rename(b0, {{"T1", "T"}, {"T2", "B"}}).value();
  AlgebraOptions options = BigBudget();
  for (auto _ : state) {
    auto r = itdb::Join(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Join_VsN)->RangeMultiplier(2)->Range(32, 1024)->Complexity(
    benchmark::oNSquared);

// N tuples over m temporal columns that all share one residue (0 mod k)
// and carry only difference constraints X_i <= X_j + c with c >= 0.  No
// pair of two such relations is disjoint on a residue or a hull, and every
// conjunction is feasible, so an intersection visits and keeps all N^2
// pairs at every m: its time is the O(m^2 N^2) worst case, not a count of
// surviving pairs that shrinks as random residues add columns.
GeneralizedRelation MakeSharedResidueRelation(std::uint32_t seed, int n,
                                              int m, std::int64_t k) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> col_pick(0, m - 1);
  std::uniform_int_distribution<std::int64_t> slack_pick(0, 4 * k);
  GeneralizedRelation r(itdb::Schema::Temporal(m));
  for (int t = 0; t < n; ++t) {
    GeneralizedTuple tuple(std::vector<itdb::Lrp>(
        static_cast<std::size_t>(m), itdb::Lrp::Make(0, k)));
    for (int c = 0; c < 2 && m > 1; ++c) {
      const int i = col_pick(rng);
      const int j = (i + 1 + col_pick(rng) % (m - 1)) % m;
      tuple.mutable_constraints().AddDifferenceUpperBound(i, j,
                                                          slack_pick(rng));
    }
    (void)r.AddTuple(std::move(tuple));  // Arity matches by construction.
  }
  return r;
}

void BM_Intersect_VsArity(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  GeneralizedRelation a = MakeSharedResidueRelation(1, 128, m, 12);
  GeneralizedRelation b = MakeSharedResidueRelation(2, 128, m, 12);
  AlgebraOptions options = BigBudget();
  KernelCounters counters;
  options.counters = &counters;
  for (auto _ : state) {
    auto r = itdb::Intersect(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  // Per run: pairs_candidate is N^2 and pruned 0 at every m.
  const auto per_run = [&](std::int64_t total) {
    return benchmark::Counter(static_cast<double>(total) /
                              static_cast<double>(state.iterations()));
  };
  state.counters["pairs_candidate"] = per_run(counters.pairs_candidate);
  state.counters["pruned"] =
      per_run(counters.pairs_pruned_residue + counters.pairs_pruned_hull);
  state.SetComplexityN(m);
}
BENCHMARK(BM_Intersect_VsArity)->DenseRange(1, 8)->Complexity(
    benchmark::oNSquared);

// ---- Selective-join workload: the indexed-kernel headline case. ----
//
// Both operands carry an integer key "K" spread over [0, 4N), so the
// expected number of key-matching pairs is ~N/4 out of the N^2 raw product.
// The hash-partitioned kernel visits only the matching buckets and prunes
// the survivors with the residue/hull prefilters before any DBM closure;
// the pairs_total / pairs_candidate counters show the gap.

GeneralizedRelation SelectiveOperand(std::uint32_t seed, int n,
                                     const char* t1, const char* t2) {
  GeneralizedRelation r =
      MakeKeyedRelation(seed, n, 2, 12, std::int64_t{4} * n);
  return itdb::Rename(r, {{"T1", t1}, {"T2", t2}}).value();
}

void BM_Join_Selective_Indexed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = SelectiveOperand(1, n, "T", "A");
  GeneralizedRelation b = SelectiveOperand(2, n, "T", "B");
  AlgebraOptions options = BigBudget();
  KernelCounters counters;
  options.counters = &counters;
  for (auto _ : state) {
    counters.Reset();
    auto r = itdb::Join(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
  itdb::bench::RecordKernelCounters(state, counters);
}
BENCHMARK(BM_Join_Selective_Indexed)
    ->RangeMultiplier(2)
    ->Range(256, 2048)
    ->Complexity();

void BM_Intersect_Selective_Indexed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = MakeKeyedRelation(1, n, 2, 12, std::int64_t{4} * n);
  GeneralizedRelation b = MakeKeyedRelation(2, n, 2, 12, std::int64_t{4} * n);
  AlgebraOptions options = BigBudget();
  KernelCounters counters;
  options.counters = &counters;
  for (auto _ : state) {
    counters.Reset();
    auto r = itdb::Intersect(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
  itdb::bench::RecordKernelCounters(state, counters);
}
BENCHMARK(BM_Intersect_Selective_Indexed)
    ->RangeMultiplier(2)
    ->Range(256, 2048)
    ->Complexity();

}  // namespace

ITDB_BENCHMARK_MAIN();
