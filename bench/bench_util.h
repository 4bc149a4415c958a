// Deterministic workload generators shared by the benchmark binaries.
//
// Appendix A of the paper analyses operations on *normalized* databases:
// every lrp in a relation has the same period k.  MakeNormalizedRelation
// generates exactly that shape; offsets and constraints are pseudo-random
// but reproducible, so run-to-run timings are comparable.

#ifndef ITDB_BENCH_BENCH_UTIL_H_
#define ITDB_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "core/algebra.h"
#include "core/index.h"
#include "core/relation.h"
#include "obs/trace.h"

namespace itdb {
namespace bench {

/// Shared benchmark main with two conveniences on top of the stock
/// google-benchmark flags: `--json <path>` (or `--json=<path>`) is rewritten
/// into `--benchmark_out=<path> --benchmark_out_format=json`, so CI can ask
/// every harness for a machine-readable report with a uniform flag; and
/// `--trace-json <path>` (or `=`) installs a process-global span tracer for
/// the run and writes a chrome://tracing-compatible JSON trace on exit.
/// Tracing records the algebra-kernel spans (obs/trace.h); results and
/// timings below the tracer's per-span overhead are unaffected.
inline int BenchMain(int argc, char** argv) {
  std::vector<std::string> args;
  std::string trace_path;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.push_back("--benchmark_out_format=json");
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.push_back(std::string("--benchmark_out=") + (arg + 7));
      args.push_back("--benchmark_out_format=json");
    } else if (std::strcmp(arg, "--trace-json") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(arg, "--trace-json=", 13) == 0) {
      trace_path = arg + 13;
    } else {
      args.push_back(arg);
    }
  }
  obs::Tracer tracer;
  if (!trace_path.empty()) obs::InstallGlobalTracer(&tracer);
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty()) {
    obs::InstallGlobalTracer(nullptr);
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      return 1;
    }
    trace_file << tracer.ToChromeTraceJson();
  }
  return 0;
}

#define ITDB_BENCHMARK_MAIN()                                  \
  int main(int argc, char** argv) {                            \
    return ::itdb::bench::BenchMain(argc, argv);               \
  }                                                            \
  static_assert(true, "require a trailing semicolon")

/// Records a run's normalization memo-cache as benchmark counters: "cache"
/// flags an attached cache, and "cache_hits"/"cache_misses" report its hit
/// statistics.
inline void RecordCacheCounters(benchmark::State& state,
                                const AlgebraOptions& options) {
  state.counters["cache"] = benchmark::Counter(
      options.normalize_cache != nullptr ? 1.0 : 0.0);
  if (options.normalize_cache != nullptr) {
    NormalizeCache::Stats stats = options.normalize_cache->stats();
    state.counters["cache_hits"] =
        benchmark::Counter(static_cast<double>(stats.hits));
    state.counters["cache_misses"] =
        benchmark::Counter(static_cast<double>(stats.misses));
  }
}

/// A relation with `num_tuples` tuples over `arity` temporal columns, every
/// lrp of period `period` (the normalized shape of Appendix A), random
/// offsets, and up to `max_constraints` random difference/bound constraints
/// per tuple.
inline GeneralizedRelation MakeNormalizedRelation(std::uint32_t seed,
                                                  int num_tuples, int arity,
                                                  std::int64_t period,
                                                  int max_constraints = 2) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> offset_pick(0, period - 1);
  std::uniform_int_distribution<std::int64_t> bound_pick(-4 * period,
                                                         4 * period);
  std::uniform_int_distribution<int> count_pick(0, max_constraints);
  std::uniform_int_distribution<int> col_pick(0, arity - 1);
  std::uniform_int_distribution<int> kind_pick(0, 2);
  GeneralizedRelation r(Schema::Temporal(arity));
  for (int t = 0; t < num_tuples; ++t) {
    std::vector<Lrp> lrps;
    lrps.reserve(static_cast<std::size_t>(arity));
    for (int i = 0; i < arity; ++i) {
      lrps.push_back(Lrp::Make(offset_pick(rng), period));
    }
    GeneralizedTuple tuple(std::move(lrps));
    int n = count_pick(rng);
    for (int c = 0; c < n; ++c) {
      int i = col_pick(rng);
      std::int64_t b = bound_pick(rng);
      switch (kind_pick(rng)) {
        case 0:
          tuple.mutable_constraints().AddUpperBound(i, b);
          break;
        case 1:
          tuple.mutable_constraints().AddLowerBound(i, -b);
          break;
        default: {
          if (arity < 2) break;
          int j = col_pick(rng);
          if (j == i) j = (i + 1) % arity;
          tuple.mutable_constraints().AddDifferenceUpperBound(i, j, b);
          break;
        }
      }
    }
    Status s = r.AddTuple(std::move(tuple));
    (void)s;  // Arity matches by construction.
  }
  return r;
}

/// Reports the indexed-kernel statistics of a run as benchmark counters.
/// `pairs_total` is the raw |a| x |b| product before partitioning,
/// `pairs_candidate` the pairs that survived the hash partition, and the
/// `pruned_*` counters the candidates discarded by the O(1) temporal
/// prefilters before any DBM work.
inline void RecordKernelCounters(benchmark::State& state,
                                 const KernelCounters& counters) {
  auto put = [&state](const char* name,
                      const std::atomic<std::int64_t>& value) {
    state.counters[name] = benchmark::Counter(
        static_cast<double>(value.load(std::memory_order_relaxed)));
  };
  put("pairs_total", counters.pairs_total);
  put("pairs_candidate", counters.pairs_candidate);
  put("pruned_residue", counters.pairs_pruned_residue);
  put("pruned_hull", counters.pairs_pruned_hull);
  put("closures_incremental", counters.closures_incremental);
  put("closures_full", counters.closures_full);
}

/// Like MakeNormalizedRelation but with one integer data attribute "K"
/// drawn uniformly from [0, key_range).  With key_range >> num_tuples the
/// expected number of key-matching pairs in a self-or-sibling join is far
/// below the raw product -- the selective workload the hash-partitioned
/// kernels are built for.
inline GeneralizedRelation MakeKeyedRelation(std::uint32_t seed,
                                             int num_tuples, int arity,
                                             std::int64_t period,
                                             std::int64_t key_range,
                                             int max_constraints = 2) {
  GeneralizedRelation base =
      MakeNormalizedRelation(seed, num_tuples, arity, period, max_constraints);
  // Re-derive key values from an independent stream so changing the
  // constraint generator never reshuffles keys.
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::uniform_int_distribution<std::int64_t> key_pick(0, key_range - 1);
  std::vector<std::string> temporal_names;
  for (int i = 0; i < arity; ++i) {
    temporal_names.push_back("T" + std::to_string(i + 1));
  }
  GeneralizedRelation r(Schema(std::move(temporal_names), {"K"},
                               {DataType::kInt}));
  for (const GeneralizedTuple& t : base.tuples()) {
    GeneralizedTuple keyed(
        std::vector<Lrp>(t.temporal()),
        std::vector<Value>{Value(key_pick(rng))});
    keyed.set_constraints(t.constraints());
    Status s = r.AddTuple(std::move(keyed));
    (void)s;  // Arity matches by construction.
  }
  return r;
}

/// A relation whose tuples mix the given periods (NOT normalized), for the
/// normalization benchmarks.
inline GeneralizedRelation MakeMixedPeriodRelation(
    std::uint32_t seed, int num_tuples, int arity,
    const std::vector<std::int64_t>& periods) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> period_pick(0,
                                                         periods.size() - 1);
  std::uniform_int_distribution<std::int64_t> offset_pick(-50, 50);
  GeneralizedRelation r(Schema::Temporal(arity));
  for (int t = 0; t < num_tuples; ++t) {
    std::vector<Lrp> lrps;
    lrps.reserve(static_cast<std::size_t>(arity));
    for (int i = 0; i < arity; ++i) {
      lrps.push_back(Lrp::Make(offset_pick(rng), periods[period_pick(rng)]));
    }
    Status s = r.AddTuple(GeneralizedTuple(std::move(lrps)));
    (void)s;
  }
  return r;
}

}  // namespace bench
}  // namespace itdb

#endif  // ITDB_BENCH_BENCH_UTIL_H_
