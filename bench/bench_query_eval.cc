// Theorem 4.1: with the query fixed, evaluating yes/no queries is PTIME in
// the database size (data complexity).  The bench holds three queries of
// increasing logical depth fixed and sweeps the number of tuples.  The
// JoinWindow pair times one join query on a window where it is true and on
// one where it is false: a yes/no statement stops at its first witness, so
// the true window is the cheaper one.  JoinWindow_Relation asks for the
// same body's relation, which pulls every pair.

#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/index.h"
#include "query/eval.h"
#include "storage/database.h"

namespace {

using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::Schema;

// N activity tuples with period 32, interval length 2, spread offsets.
Database MakeDb(int n) {
  GeneralizedRelation r(Schema({"S", "E"}, {"Who"}, {itdb::DataType::kString}));
  for (int i = 0; i < n; ++i) {
    std::int64_t offset = (i * 7) % 30;
    itdb::GeneralizedTuple t(
        {itdb::Lrp::Make(offset, 32), itdb::Lrp::Make(offset + 2, 32)},
        {itdb::Value("w" + std::to_string(i % 4))});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -2);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  Database db;
  db.Put("Busy", std::move(r));
  return db;
}

// The Busy shape of the Theorem 4.1 end-to-end workload: N tuples with
// offsets 7i mod 30 except 12-14, so instant 14 of every period of 32 is a
// gap, and four workers.
Database MakeBusyDb(int n) {
  GeneralizedRelation r(Schema({"S", "E"}, {"Who"}, {itdb::DataType::kString}));
  for (int j = 0; r.size() < n; ++j) {
    const std::int64_t offset = (j * 7) % 30;
    if (offset >= 12 && offset <= 14) continue;
    itdb::GeneralizedTuple t(
        {itdb::Lrp::Make(offset, 32), itdb::Lrp::Make(offset + 2, 32)},
        {itdb::Value("w" + std::to_string(j % 4))});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -2);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  Database db;
  db.Put("Busy", std::move(r));
  return db;
}

void RunQuery(benchmark::State& state, const std::string& text) {
  const int n = static_cast<int>(state.range(0));
  Database db = MakeDb(n);
  itdb::query::QueryOptions options;
  options.algebra.max_tuples = std::int64_t{1} << 26;
  options.algebra.max_split_product = std::int64_t{1} << 26;
  for (auto _ : state) {
    auto r = itdb::query::EvalBooleanQueryString(db, text, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}

// Existential conjunctive query (join + projection).
void BM_Query_ExistentialJoin(benchmark::State& state) {
  RunQuery(state,
           "EXISTS t . EXISTS s1 . EXISTS e1 . EXISTS s2 . EXISTS e2 . "
           "EXISTS w1 . EXISTS w2 . "
           "Busy(s1, e1, w1) AND Busy(s2, e2, w2) AND "
           "s1 <= t AND t <= e1 AND s2 <= t AND t <= e2 AND NOT w1 = w2");
}
BENCHMARK(BM_Query_ExistentialJoin)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

// One negation (complement over a one-column relation).
void BM_Query_SingleNegation(benchmark::State& state) {
  RunQuery(state,
           "EXISTS t . 0 <= t AND t <= 1000000 AND "
           "NOT (EXISTS s . EXISTS e . EXISTS w . "
           "Busy(s, e, w) AND s <= t AND t <= e)");
}
BENCHMARK(BM_Query_SingleNegation)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

// Universal quantification (two complements).
void BM_Query_Universal(benchmark::State& state) {
  RunQuery(state,
           "FORALL t . EXISTS s . EXISTS e . EXISTS w . "
           "Busy(s, e, w) AND s <= t AND t <= e");
}
BENCHMARK(BM_Query_Universal)->RangeMultiplier(2)->Range(4, 128)->Complexity();

// Two different workers busy at one instant t of [lo, hi].
std::string JoinWindowBody(int lo, int hi) {
  return "Busy(s1, e1, w1) AND Busy(s2, e2, w2) AND s1 <= t AND t <= e1 AND "
         "s2 <= t AND t <= e2 AND NOT w1 = w2 AND " +
         std::to_string(lo) + " <= t AND t <= " + std::to_string(hi);
}

// The JoinWindow body, closed and answered yes/no under the default
// budgets; reports the candidate pairs of one answer.
void RunJoinWindow(benchmark::State& state, int lo, int hi, bool expected) {
  Database db = MakeBusyDb(static_cast<int>(state.range(0)));
  const std::string text =
      "EXISTS t . EXISTS s1 . EXISTS e1 . EXISTS s2 . EXISTS e2 . "
      "EXISTS w1 . EXISTS w2 . " +
      JoinWindowBody(lo, hi);
  itdb::KernelCounters counters;
  itdb::query::QueryOptions options;
  options.algebra.counters = &counters;
  for (auto _ : state) {
    auto r = itdb::query::EvalBooleanQueryString(db, text, options);
    benchmark::DoNotOptimize(r);
    if (!r.ok() || *r != expected) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
  state.counters["pairs_candidate"] = benchmark::Counter(
      static_cast<double>(counters.pairs_candidate.load()),
      benchmark::Counter::kAvgIterations);
}

void BM_Query_JoinWindow_True(benchmark::State& state) {
  RunJoinWindow(state, 100, 130, true);
}
BENCHMARK(BM_Query_JoinWindow_True)->Arg(32)->Arg(128);

// 110 = 14 + 3 * 32: nobody is busy then.
void BM_Query_JoinWindow_False(benchmark::State& state) {
  RunJoinWindow(state, 110, 110, false);
}
BENCHMARK(BM_Query_JoinWindow_False)->Arg(32)->Arg(128);

// The JoinWindow body over [100, 130] as a relation (12,280 tuples at
// 128): the whole chain is pulled, then reordered and sorted once at its
// root.  Reports the result size.
void BM_Query_JoinWindow_Relation(benchmark::State& state) {
  Database db = MakeBusyDb(static_cast<int>(state.range(0)));
  const std::string text = JoinWindowBody(100, 130);
  std::int64_t tuples = 0;
  for (auto _ : state) {
    auto r = itdb::query::EvalQueryString(db, text);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    tuples = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_Query_JoinWindow_Relation)->Arg(32)->Arg(128);

}  // namespace

ITDB_BENCHMARK_MAIN();
