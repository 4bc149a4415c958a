// Appendix A.1 / Section 3.8: the cost and blow-up of normalization.
//
// A tuple with periods k_1..k_m splits into prod(k/k_i) normal-form tuples
// where k = lcm(k_i).  Closely related periods (divisor chains) keep the
// blow-up tame; unrelated (coprime) periods are "the unfavorable situation"
// the paper expects to be the exception.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/normalize.h"
#include "core/normalize_cache.h"

namespace {

using itdb::GeneralizedRelation;
using itdb::NormalizeCache;
using itdb::NormalizeOptions;
using itdb::bench::MakeMixedPeriodRelation;

void RunNormalize(benchmark::State& state, const GeneralizedRelation& r) {
  NormalizeOptions options;
  options.max_split_product = std::int64_t{1} << 24;
  std::int64_t produced = 0;
  for (auto _ : state) {
    produced = 0;
    for (const auto& t : r.tuples()) {
      auto n = itdb::NormalizeTuple(t, options);
      if (n.ok()) produced += static_cast<std::int64_t>(n.value().size());
      benchmark::DoNotOptimize(n);
    }
  }
  state.counters["normal_form_tuples"] =
      benchmark::Counter(static_cast<double>(produced));
}

void BM_Normalize_DivisorChain(benchmark::State& state) {
  // Periods {2, 4, 8}: lcm 8, splits of at most 4 per column.
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {2, 4, 8}));
}
BENCHMARK(BM_Normalize_DivisorChain);

void BM_Normalize_SharedFactor(benchmark::State& state) {
  // Periods {6, 10, 15}: lcm 30.
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {6, 10, 15}));
}
BENCHMARK(BM_Normalize_SharedFactor);

void BM_Normalize_Coprime(benchmark::State& state) {
  // Periods {7, 11, 13}: lcm 1001 -- the worst case k = prod(k_i).
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {7, 11, 13}));
}
BENCHMARK(BM_Normalize_Coprime);

void BM_Normalize_VsArity(benchmark::State& state) {
  // Blow-up is multiplicative per column: exponential in the arity.
  const int m = static_cast<int>(state.range(0));
  RunNormalize(state, MakeMixedPeriodRelation(3, 16, m, {3, 4}));
  state.SetComplexityN(m);
}
BENCHMARK(BM_Normalize_VsArity)->DenseRange(1, 6)->Complexity();

void BM_Normalize_AlreadyNormal(benchmark::State& state) {
  // Normal-form input: normalization degenerates to a feasibility sweep.
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {12}));
}
BENCHMARK(BM_Normalize_AlreadyNormal);

void BM_Normalize_MemoCache(benchmark::State& state) {
  // Repeated normalization of one relation through the memo-cache: after
  // the first sweep every tuple is a hit, so steady-state iterations
  // measure key construction + survivor materialization only.
  GeneralizedRelation r = MakeMixedPeriodRelation(3, 64, 2, {7, 11, 13});
  NormalizeOptions options;
  options.max_split_product = std::int64_t{1} << 24;
  NormalizeCache cache;
  for (auto _ : state) {
    for (const auto& t : r.tuples()) {
      auto n = itdb::CachedNormalizeTuple(&cache, t, options);
      benchmark::DoNotOptimize(n);
    }
  }
  NormalizeCache::Stats stats = cache.stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(stats.misses));
  state.counters["cache_entries"] =
      benchmark::Counter(static_cast<double>(stats.entries));
}
BENCHMARK(BM_Normalize_MemoCache);

}  // namespace

ITDB_BENCHMARK_MAIN();
