// Ablation: the miniscoping query optimizer (query/optimize.h).
//
// Negation compiles to the Appendix A.6 complement whose cost is
// exponential in the operand's column count, so quantifier scope directly
// controls evaluation cost.  The bench evaluates the same queries with the
// optimizer on and off.  A FORALL is NOT EXISTS NOT, so the optimizer's
// negation pushing takes the universal block's inner NOT into the body and
// leaves one complement after the projection.  `--json <path>` writes a
// report (bench_util.h); CI pins Naive / Optimized on Example 4.1 as a
// ratio in bench/bench_floors.json.

#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "query/eval.h"
#include "storage/database.h"

namespace {

using itdb::Database;

Database RobotsDb() {
  auto db = Database::FromText(R"(
    relation Perform(T1: time, T2: time, Robot: string, Task: string) {
      [8n, 6+8n | "r1", "task2"] : T1 = T2 - 6;
      [7+8n, 7+8n | "r2", "task1"] : T1 = T2;
    }
  )");
  return std::move(db).value();
}

// Example 4.1 exactly as printed in the paper: the universal block scopes
// over the whole implication.
constexpr const char* kExample41 = R"(
  EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 .
    FORALL t3 . FORALL t4 . FORALL z .
      (Perform(t1, t2, x, "task2") AND t1 <= t3 <= t4 <= t2
         AND t1 + 5 <= t2)
      -> NOT Perform(t3, t4, y, z)
)";

// A smaller universally quantified query with one movable conjunct.
constexpr const char* kSmallUniversal = R"(
  FORALL t3 . FORALL z .
    (Perform(0, 6, "r1", "task2") AND 0 <= t3 AND t3 <= 6)
    -> NOT Perform(t3, t3, "r2", z)
)";

void RunCase(benchmark::State& state, const char* text, bool optimize) {
  Database db = RobotsDb();
  itdb::query::QueryOptions options;
  options.optimize = optimize;
  options.algebra.max_tuples = std::int64_t{1} << 26;
  options.algebra.max_split_product = std::int64_t{1} << 26;
  for (auto _ : state) {
    auto r = itdb::query::EvalBooleanQueryString(db, text, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}

void BM_Example41_Optimized(benchmark::State& state) {
  RunCase(state, kExample41, /*optimize=*/true);
}
BENCHMARK(BM_Example41_Optimized)->Unit(benchmark::kMillisecond);

void BM_Example41_Naive(benchmark::State& state) {
  RunCase(state, kExample41, /*optimize=*/false);
}
BENCHMARK(BM_Example41_Naive)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);  // Deliberately naive: one iteration is plenty.

void BM_SmallUniversal_Optimized(benchmark::State& state) {
  RunCase(state, kSmallUniversal, /*optimize=*/true);
}
BENCHMARK(BM_SmallUniversal_Optimized)->Unit(benchmark::kMillisecond);

void BM_SmallUniversal_Naive(benchmark::State& state) {
  RunCase(state, kSmallUniversal, /*optimize=*/false);
}
BENCHMARK(BM_SmallUniversal_Naive)->Unit(benchmark::kMillisecond);

}  // namespace

ITDB_BENCHMARK_MAIN();
