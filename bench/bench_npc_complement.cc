// Theorem 3.6: nonemptiness-of-complement is NP-complete.
//
// The bench runs the 3-SAT -> complement reduction pipeline on random
// instances and reports
//   * scaling with the number of variables (= temporal arity of the
//     reduction relation): exponential, as the theorem predicts;
//   * agreement and relative cost against the DPLL baseline;
//   * scaling with the number of clauses at fixed arity (the fixed-schema
//     polynomial direction).

#include <benchmark/benchmark.h>

#include "core/algebra.h"
#include "sat/reduction.h"
#include "sat/solver.h"

namespace {

using itdb::AlgebraOptions;
using itdb::sat::CnfFormula;
using itdb::sat::RandomThreeSat;

AlgebraOptions BigBudget() {
  AlgebraOptions options;
  options.max_tuples = std::int64_t{1} << 26;
  options.max_split_product = std::int64_t{1} << 26;
  return options;
}

void BM_ComplementSat_VsVars(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  // Clause/variable ratio ~4.2: near the 3-SAT phase transition.
  CnfFormula f = RandomThreeSat(42, vars, vars * 42 / 10);
  AlgebraOptions options = BigBudget();
  std::int64_t complement_tuples = 0;
  for (auto _ : state) {
    auto r = itdb::sat::SolveViaComplement(f, options);
    if (r.ok()) complement_tuples = r.value().complement_tuples;
    benchmark::DoNotOptimize(r);
  }
  state.counters["complement_tuples"] =
      benchmark::Counter(static_cast<double>(complement_tuples));
  state.SetComplexityN(vars);
}
BENCHMARK(BM_ComplementSat_VsVars)->DenseRange(4, 12)->Complexity();

void BM_Dpll_VsVars(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  CnfFormula f = RandomThreeSat(42, vars, vars * 42 / 10);
  for (auto _ : state) {
    auto r = itdb::sat::SolveDpll(f);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(vars);
}
BENCHMARK(BM_Dpll_VsVars)->DenseRange(4, 12)->Complexity();

void BM_ComplementSat_VsClauses(benchmark::State& state) {
  const int clauses = static_cast<int>(state.range(0));
  CnfFormula f = RandomThreeSat(7, 8, clauses);
  AlgebraOptions options = BigBudget();
  for (auto _ : state) {
    auto r = itdb::sat::SolveViaComplement(f, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(clauses);
}
BENCHMARK(BM_ComplementSat_VsClauses)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
