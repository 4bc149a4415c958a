// Ablation: the redundancy-elimination pass the paper leaves open
// ("one would also attempt to eliminate the redundancies...", Section 3.1).
//
// A chain of unions and subtractions accumulates subsumed and empty tuples;
// running Simplify between steps trades per-step cost against smaller
// intermediates.  The bench measures a fixed pipeline with the pass on and
// off, reporting both time and final tuple counts.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"
#include "core/simplify.h"

namespace {

using itdb::AlgebraOptions;
using itdb::GeneralizedRelation;
using itdb::bench::MakeNormalizedRelation;

// Union of shifted copies followed by repeated subtraction: produces many
// overlapping and empty tuples.  With `simplify`, Simplify runs after every
// Union and Subtract.
itdb::Result<GeneralizedRelation> Pipeline(bool simplify, int rounds) {
  AlgebraOptions options;
  options.max_tuples = std::int64_t{1} << 26;
  GeneralizedRelation acc = MakeNormalizedRelation(1, 32, 2, 6);
  for (int i = 0; i < rounds; ++i) {
    GeneralizedRelation other =
        MakeNormalizedRelation(static_cast<std::uint32_t>(i + 2), 16, 2, 6);
    ITDB_ASSIGN_OR_RETURN(acc, itdb::Union(acc, other, options));
    if (simplify) {
      ITDB_ASSIGN_OR_RETURN(acc, itdb::Simplify(acc));
    }
    GeneralizedRelation minus =
        MakeNormalizedRelation(static_cast<std::uint32_t>(100 + i), 4, 2, 6);
    ITDB_ASSIGN_OR_RETURN(acc, itdb::Subtract(acc, minus, options));
    if (simplify) {
      ITDB_ASSIGN_OR_RETURN(acc, itdb::Simplify(acc));
    }
  }
  return acc;
}

void RunPipeline(benchmark::State& state, bool simplify) {
  std::int64_t tuples = 0;
  for (auto _ : state) {
    auto r = Pipeline(simplify, static_cast<int>(state.range(0)));
    if (r.ok()) tuples = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["final_tuples"] =
      benchmark::Counter(static_cast<double>(tuples));
}

void BM_Pipeline_NoSimplify(benchmark::State& state) {
  RunPipeline(state, /*simplify=*/false);
}
BENCHMARK(BM_Pipeline_NoSimplify)->DenseRange(1, 4);

void BM_Pipeline_WithSimplify(benchmark::State& state) {
  RunPipeline(state, /*simplify=*/true);
}
BENCHMARK(BM_Pipeline_WithSimplify)->DenseRange(1, 4);

void BM_SimplifyPass_Alone(benchmark::State& state) {
  auto built = Pipeline(/*simplify=*/false, 3);
  if (!built.ok()) {
    state.SkipWithError("pipeline failed");
    return;
  }
  GeneralizedRelation r = std::move(built).value();
  std::int64_t before = r.size();
  std::int64_t after = 0;
  for (auto _ : state) {
    auto s = itdb::Simplify(r);
    if (s.ok()) after = s.value().size();
    benchmark::DoNotOptimize(s);
  }
  state.counters["tuples_before"] =
      benchmark::Counter(static_cast<double>(before));
  state.counters["tuples_after"] =
      benchmark::Counter(static_cast<double>(after));
}
BENCHMARK(BM_SimplifyPass_Alone);

}  // namespace

BENCHMARK_MAIN();
