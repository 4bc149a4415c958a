// Extension bench: residue coalescing (core/coalesce.h), the inverse of
// Lemma 3.1.  Complements enumerate the k^m residue universe (Appendix
// A.6), so their outputs are full of mergeable families; this bench
// measures the pass's cost and compression on complement outputs of
// growing period.

#include <benchmark/benchmark.h>

#include "core/algebra.h"
#include "core/coalesce.h"

namespace {

using itdb::GeneralizedRelation;

// The complement of a sparse periodic set: one residue out of k occupied.
GeneralizedRelation SparseComplement(std::int64_t k) {
  GeneralizedRelation r(itdb::Schema::Temporal(1));
  benchmark::DoNotOptimize(
      r.AddTuple(itdb::GeneralizedTuple({itdb::Lrp::Make(3 % k, k)})));
  itdb::AlgebraOptions options;
  options.max_split_product = std::int64_t{1} << 26;
  auto c = itdb::Complement(r, options);
  return std::move(c).value();
}

void BM_Coalesce_ComplementOutput(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  GeneralizedRelation comp = SparseComplement(k);
  std::int64_t before = comp.size();
  std::int64_t after = 0;
  for (auto _ : state) {
    auto packed = itdb::CoalesceResidues(comp);
    if (packed.ok()) after = packed.value().size();
    benchmark::DoNotOptimize(packed);
  }
  state.counters["tuples_before"] =
      benchmark::Counter(static_cast<double>(before));
  state.counters["tuples_after"] =
      benchmark::Counter(static_cast<double>(after));
  state.SetComplexityN(k);
}
BENCHMARK(BM_Coalesce_ComplementOutput)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

void BM_Coalesce_TwoColumnGrid(benchmark::State& state) {
  // A full k x k residue grid minus one cell: collapses massively.
  const std::int64_t k = state.range(0);
  GeneralizedRelation r(itdb::Schema::Temporal(2));
  for (std::int64_t a = 0; a < k; ++a) {
    for (std::int64_t b = 0; b < k; ++b) {
      if (a == 0 && b == 0) continue;
      benchmark::DoNotOptimize(r.AddTuple(itdb::GeneralizedTuple(
          {itdb::Lrp::Make(a, k), itdb::Lrp::Make(b, k)})));
    }
  }
  std::int64_t after = 0;
  for (auto _ : state) {
    auto packed = itdb::CoalesceResidues(r);
    if (packed.ok()) after = packed.value().size();
    benchmark::DoNotOptimize(packed);
  }
  state.counters["tuples_before"] =
      benchmark::Counter(static_cast<double>(r.size()));
  state.counters["tuples_after"] =
      benchmark::Counter(static_cast<double>(after));
}
BENCHMARK(BM_Coalesce_TwoColumnGrid)->Arg(4)->Arg(8)->Arg(12);

void BM_Coalesce_NoOpOnIncompressible(benchmark::State& state) {
  // Disjoint odd periods: nothing merges; measures pure scan overhead.
  GeneralizedRelation r(itdb::Schema::Temporal(1));
  for (std::int64_t k : {3, 5, 7, 11, 13}) {
    benchmark::DoNotOptimize(
        r.AddTuple(itdb::GeneralizedTuple({itdb::Lrp::Make(1, k)})));
  }
  for (auto _ : state) {
    auto packed = itdb::CoalesceResidues(r);
    benchmark::DoNotOptimize(packed);
  }
}
BENCHMARK(BM_Coalesce_NoOpOnIncompressible);

}  // namespace

BENCHMARK_MAIN();
