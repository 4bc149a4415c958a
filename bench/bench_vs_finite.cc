// The introduction's claim: "using methods that can handle infinite time
// can lead to a more compact and tractable representation."
//
// The same periodic workload is handled twice: symbolically (generalized
// relations, constant size, horizon-free) and by materializing an explicit
// finite relation over a growing horizon.  Both representation size and
// operation cost are reported.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"
#include "finite/finite_relation.h"

namespace {

using itdb::FiniteRelation;
using itdb::GeneralizedRelation;
using itdb::Schema;

// Daily backup windows + 6-hourly sync instants, as in the examples.
GeneralizedRelation Workload() {
  GeneralizedRelation r(Schema::Temporal(2));
  {
    itdb::GeneralizedTuple t(
        {itdb::Lrp::Make(120, 1440), itdb::Lrp::Make(165, 1440)});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -45);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  {
    itdb::GeneralizedTuple t(
        {itdb::Lrp::Make(60, 360), itdb::Lrp::Make(75, 360)});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -15);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  return r;
}

void BM_Materialize_VsHorizon(benchmark::State& state) {
  const std::int64_t days = state.range(0);
  GeneralizedRelation r = Workload();
  std::int64_t rows = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    FiniteRelation f = FiniteRelation::Materialize(r, 0, days * 1440);
    rows = f.size();
    bytes = f.ApproxBytes();
    benchmark::DoNotOptimize(f);
  }
  state.counters["rows"] = benchmark::Counter(static_cast<double>(rows));
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(bytes));
  state.SetComplexityN(days);
}
BENCHMARK(BM_Materialize_VsHorizon)
    ->RangeMultiplier(4)
    ->Range(1, 1024)
    ->Complexity(benchmark::oN);

void BM_GeneralizedIntersect_HorizonFree(benchmark::State& state) {
  // Intersecting the workload with a shifted copy of itself: constant cost,
  // independent of any horizon (there is none).
  GeneralizedRelation a = Workload();
  auto shifted = itdb::ShiftTemporalColumn(a, 0, 15);
  GeneralizedRelation b = std::move(shifted).value();
  itdb::AlgebraOptions options;
  for (auto _ : state) {
    auto r = itdb::Intersect(a, b, options);
    benchmark::DoNotOptimize(r);
  }
  itdb::bench::RecordCacheCounters(state, options);
}
BENCHMARK(BM_GeneralizedIntersect_HorizonFree);

void BM_FiniteIntersect_VsHorizon(benchmark::State& state) {
  const std::int64_t days = state.range(0);
  GeneralizedRelation g = Workload();
  FiniteRelation a = FiniteRelation::Materialize(g, 0, days * 1440);
  FiniteRelation b = a;
  for (auto _ : state) {
    auto r = FiniteRelation::Intersect(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(days);
}
BENCHMARK(BM_FiniteIntersect_VsHorizon)
    ->RangeMultiplier(4)
    ->Range(1, 1024)
    ->Complexity(benchmark::oN);

void BM_GeneralizedMembership(benchmark::State& state) {
  // Membership at an arbitrarily distant instant: O(1) arithmetic.
  GeneralizedRelation r = Workload();
  std::int64_t day = 1000000;
  for (auto _ : state) {
    bool in = r.Contains({{120 + day * 1440, 165 + day * 1440}, {}});
    benchmark::DoNotOptimize(in);
  }
}
BENCHMARK(BM_GeneralizedMembership);

}  // namespace

BENCHMARK_MAIN();
