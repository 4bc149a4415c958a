// Tables 2 and 3, rows "Negation" / "Subtraction": polynomial in N under the
// fixed-schema measure, EXPTIME under the general measure.
//
// * Negation vs N at fixed arity: polynomial (the Appendix A.6 incremental
//   DNF with reduction keeps intermediate results within the
//   (N+1)^{m(m+1)} bound).
// * Negation vs arity at fixed N: the k^m residue universe makes the cost
//   exponential in m -- the separation the paper's Table 3 records.
// * Subtraction vs N: fixed-schema polynomial.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"

namespace {

using itdb::AlgebraOptions;
using itdb::GeneralizedRelation;
using itdb::bench::MakeNormalizedRelation;

AlgebraOptions BigBudget() {
  AlgebraOptions options;
  options.max_tuples = std::int64_t{1} << 26;
  options.max_split_product = std::int64_t{1} << 26;
  return options;
}

void BM_Negation_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation r = MakeNormalizedRelation(1, n, 2, 6);
  AlgebraOptions options = BigBudget();
  std::int64_t out_tuples = 0;
  for (auto _ : state) {
    auto c = itdb::Complement(r, options);
    if (c.ok()) out_tuples = c.value().size();
    benchmark::DoNotOptimize(c);
  }
  state.counters["complement_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
  state.SetComplexityN(n);
}
BENCHMARK(BM_Negation_VsN)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_Negation_VsArity(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  // Period 4: the universe has 4^m residue vectors -- exponential in m.
  GeneralizedRelation r = MakeNormalizedRelation(1, 16, m, 4);
  AlgebraOptions options = BigBudget();
  std::int64_t out_tuples = 0;
  for (auto _ : state) {
    auto c = itdb::Complement(r, options);
    if (c.ok()) out_tuples = c.value().size();
    benchmark::DoNotOptimize(c);
  }
  state.counters["complement_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
  state.SetComplexityN(m);
}
BENCHMARK(BM_Negation_VsArity)->DenseRange(1, 8)->Complexity();

void BM_Subtraction_VsN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = MakeNormalizedRelation(1, n, 2, 6);
  // Subtrahend of fixed size: the fixed-schema polynomial case.
  GeneralizedRelation b = MakeNormalizedRelation(2, 8, 2, 6);
  AlgebraOptions options = BigBudget();
  for (auto _ : state) {
    auto d = itdb::Subtract(a, b, options);
    benchmark::DoNotOptimize(d);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Subtraction_VsN)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_Subtraction_VsSubtrahend(benchmark::State& state) {
  // Growing the subtrahend multiplies the result by up to m(m+1) per
  // subtracted tuple before reduction; the reduction keeps it polynomial.
  const int n2 = static_cast<int>(state.range(0));
  GeneralizedRelation a = MakeNormalizedRelation(1, 32, 2, 6);
  GeneralizedRelation b = MakeNormalizedRelation(2, n2, 2, 6);
  AlgebraOptions options = BigBudget();
  std::int64_t out_tuples = 0;
  for (auto _ : state) {
    auto d = itdb::Subtract(a, b, options);
    if (d.ok()) out_tuples = d.value().size();
    benchmark::DoNotOptimize(d);
  }
  state.counters["difference_tuples"] =
      benchmark::Counter(static_cast<double>(out_tuples));
  state.SetComplexityN(n2);
}
BENCHMARK(BM_Subtraction_VsSubtrahend)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
