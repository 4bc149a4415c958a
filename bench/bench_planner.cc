// The two perf levers this module family adds on top of the evaluator:
// cost-based join ordering and the versioned cross-query result cache.
//
// The planner pair evaluates one adversarially *written* 3-relation AND
// chain -- two large relations that share no variable first, the selective
// bridge last -- with cost_plan off (written order: a Big x Wide cross
// product materializes before Link prunes it) and on (the planner seeds the
// chain with Link, so no cross product ever exists).  Same query, same
// bit-identical answer; the gap is pure join ordering.
//
// The cache pair pushes the same statement through the session layer with
// and without an attached ResultCache: cold pays parse + plan + eval +
// render every iteration, warm pays parse + key + one map lookup
// and re-serves the rendered bytes.  CI pins both gaps as ratio floors in
// bench_floors.json.

#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/stats.h"
#include "query/eval.h"
#include "server/result_cache.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace {

using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::Result;
using itdb::StatsCache;
using itdb::server::ResultCache;
using itdb::server::Session;
using itdb::server::SessionOptions;
using itdb::server::SharedDatabase;

// Big and Wide carry 150 singleton tuples each and share no variable in the
// benchmark query; Link is a 4-tuple bridge.  Written order forces the
// 150 x 150 cross product before Link can prune it.
constexpr int kFanout = 150;

constexpr const char* kChain = "Big(t) AND Wide(u) AND Link(t, u)";
constexpr const char* kChainStatement = "query Big(t) AND Wide(u) AND Link(t, u)";

Database MakeAdversarialCatalog() {
  std::ostringstream text;
  text << "relation Big(T: time) {";
  for (int i = 0; i < kFanout; ++i) text << " [" << 10 * i << "];";
  text << " }\n";
  text << "relation Wide(T: time) {";
  for (int i = 0; i < kFanout; ++i) text << " [" << 7 * i + 3 << "];";
  text << " }\n";
  text << "relation Link(A: time, B: time) {"
          " [0, 3]; [10, 10]; [30, 17]; [50, 24]; }\n";
  Result<Database> db = Database::FromText(text.str());
  if (!db.ok()) std::abort();
  return std::move(db).value();
}

void RunChain(benchmark::State& state, bool cost_plan) {
  Database db = MakeAdversarialCatalog();
  StatsCache stats_cache;
  itdb::query::QueryOptions options;
  options.cost_plan = cost_plan;
  options.stats_cache = &stats_cache;
  std::size_t tuples = 0;
  for (auto _ : state) {
    Result<GeneralizedRelation> result =
        itdb::query::EvalQueryString(db, kChain, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      return;
    }
    tuples = result.value().tuples().size();
    benchmark::DoNotOptimize(result.value());
  }
  state.counters["tuples"] =
      benchmark::Counter(static_cast<double>(tuples));
}

void BM_Planner_AdversarialChain_Written(benchmark::State& state) {
  RunChain(state, /*cost_plan=*/false);
}
BENCHMARK(BM_Planner_AdversarialChain_Written)
    ->Unit(benchmark::kMicrosecond);

void BM_Planner_AdversarialChain_Planned(benchmark::State& state) {
  RunChain(state, /*cost_plan=*/true);
}
BENCHMARK(BM_Planner_AdversarialChain_Planned)
    ->Unit(benchmark::kMicrosecond);

// --- Result-cache round trips -------------------------------------------

void BM_ResultCache_ColdRoundTrip(benchmark::State& state) {
  Database db = MakeAdversarialCatalog();
  SharedDatabase shared(&db);
  Session session(&shared, SessionOptions{});
  for (auto _ : state) {
    std::ostringstream out;
    itdb::Status s = session.Execute(kChainStatement, out);
    if (!s.ok()) {
      state.SkipWithError(s.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ResultCache_ColdRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_ResultCache_WarmRoundTrip(benchmark::State& state) {
  Database db = MakeAdversarialCatalog();
  SharedDatabase shared(&db);
  ResultCache cache(std::size_t{1} << 24);
  SessionOptions options;
  options.result_cache = &cache;
  Session session(&shared, options);
  // Prime the cache so every timed iteration is a warm hit.
  {
    std::ostringstream out;
    itdb::Status s = session.Execute(kChainStatement, out);
    if (!s.ok()) {
      state.SkipWithError(s.message().c_str());
      return;
    }
  }
  for (auto _ : state) {
    std::ostringstream out;
    itdb::Status s = session.Execute(kChainStatement, out);
    if (!s.ok()) {
      state.SkipWithError(s.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  ResultCache::Stats stats = cache.stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
}
BENCHMARK(BM_ResultCache_WarmRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

ITDB_BENCHMARK_MAIN();
