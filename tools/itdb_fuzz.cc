// Metamorphic + differential fuzzer for the generalized algebra.
//
//   ./itdb_fuzz --cases 2000 --seed 1          # fuzz, exit 1 on failure
//   ./itdb_fuzz --replay repro.itdb            # re-run a saved repro
//   ./itdb_fuzz --inject-bug join-drop-constraint --out /tmp/repros
//
// On failure, each minimized case is written as a replayable dump
// (<out>/repro-<seed>.itdb, default ".") and printed to stderr.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fuzz/fuzzer.h"
#include "fuzz/query_oracle.h"
#include "obs/trace.h"

namespace {

constexpr const char* kUsage = R"(usage: itdb_fuzz [options]
  --cases N          number of random cases to run (default 1000)
  --seed S           master seed; every failure reports its own sub-seed
                     (default 1)
  --inner W          differential comparison window [-W, W] (default 4)
  --outer W          finite-baseline materialization window (default 28)
  --max-failures N   stop after N failures (default 5)
  --query-cases N    additionally fuzz the query pipeline: N random queries
                     through the five oracles of fuzz/query_oracle.h
                     (bit-identity matrix, proven-empty, certificate,
                     closed-form, optimizer) (default 0 = off)
  --no-shrink        report failures unminimized
  --inject-bug NAME  corrupt the engine on purpose; the fuzzer must catch it
                     (none, join-drop-constraint, union-drop-tuple,
                      shift-off-by-one)
  --replay FILE      re-run the oracles on a saved repro dump, then exit
  --out DIR          directory for repro dumps (default ".")
  --trace-json FILE  record spans (one per case + algebra kernels) and write
                     a chrome://tracing-compatible JSON trace to FILE
  --verbose          per-failure detail on stderr
)";

std::uint64_t ParseU64(const std::string& s) {
  return std::stoull(s);
}

int Usage() {
  std::cerr << kUsage;
  return 2;
}

int Replay(const std::string& path, const itdb::fuzz::OracleOptions& oracle) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "error: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  itdb::Result<itdb::fuzz::CaseOutcome> outcome =
      itdb::fuzz::ReplayRepro(buffer.str(), oracle);
  if (!outcome.ok()) {
    std::cerr << path << ": " << outcome.status() << "\n";
    return 2;
  }
  if (outcome->skipped) {
    std::cout << path << ": skipped (" << outcome->skip_reason << ")\n";
    return 0;
  }
  if (outcome->failure) {
    std::cerr << path << ": FAIL [" << outcome->failure->oracle;
    if (!outcome->failure->rule.empty()) {
      std::cerr << " / " << outcome->failure->rule;
    }
    std::cerr << "] " << outcome->failure->detail << "\n";
    return 1;
  }
  std::cout << path << ": ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  itdb::fuzz::FuzzConfig config;
  itdb::fuzz::QueryFuzzConfig query_config;
  query_config.cases = 0;
  std::string replay_path;
  std::string out_dir = ".";
  std::string trace_path;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    try {
      if (arg == "--cases") {
        const char* v = next();
        if (!v) return Usage();
        config.cases = std::stoi(v);
      } else if (arg == "--seed") {
        const char* v = next();
        if (!v) return Usage();
        config.seed = ParseU64(v);
      } else if (arg == "--inner") {
        const char* v = next();
        if (!v) return Usage();
        config.oracle.inner_window = std::stoll(v);
      } else if (arg == "--outer") {
        const char* v = next();
        if (!v) return Usage();
        config.oracle.outer_window = std::stoll(v);
      } else if (arg == "--max-failures") {
        const char* v = next();
        if (!v) return Usage();
        config.max_failures = std::stoi(v);
      } else if (arg == "--query-cases") {
        const char* v = next();
        if (!v) return Usage();
        query_config.cases = std::stoi(v);
      } else if (arg == "--no-shrink") {
        config.shrink = false;
      } else if (arg == "--inject-bug") {
        const char* v = next();
        if (!v) return Usage();
        itdb::Result<itdb::fuzz::InjectedBug> bug =
            itdb::fuzz::ParseInjectedBug(v);
        if (!bug.ok()) {
          std::cerr << "error: " << bug.status() << "\n";
          return 2;
        }
        config.oracle.bug = *bug;
      } else if (arg == "--replay") {
        const char* v = next();
        if (!v) return Usage();
        replay_path = v;
      } else if (arg == "--out") {
        const char* v = next();
        if (!v) return Usage();
        out_dir = v;
      } else if (arg == "--trace-json") {
        const char* v = next();
        if (!v) return Usage();
        trace_path = v;
      } else if (arg == "--verbose") {
        verbose = true;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else {
        std::cerr << "error: unknown option " << arg << "\n";
        return Usage();
      }
    } catch (const std::exception&) {
      std::cerr << "error: bad value for " << arg << "\n";
      return 2;
    }
  }

  // Installed globally (not just wired into config.tracer) so the algebra
  // kernels a case exercises record spans too, nested under the case span.
  itdb::obs::Tracer tracer;
  if (!trace_path.empty()) {
    itdb::obs::InstallGlobalTracer(&tracer);
    config.tracer = &tracer;
  }

  if (!replay_path.empty()) return Replay(replay_path, config.oracle);

  itdb::fuzz::FuzzReport report = itdb::fuzz::RunFuzz(config);
  std::cout << "seed " << config.seed << ": " << report.Summary() << "\n";

  bool query_ok = true;
  if (query_config.cases > 0) {
    query_config.seed = config.seed;
    query_config.max_failures = config.max_failures;
    itdb::fuzz::QueryFuzzReport query_report =
        itdb::fuzz::RunQueryFuzz(query_config);
    std::cout << "seed " << config.seed << ": " << query_report.Summary()
              << "\n";
    for (const itdb::fuzz::QueryFuzzFailure& fail : query_report.failures) {
      std::cerr << "FAIL [query] seed " << fail.case_seed << ": "
                << fail.description << "\n  query: " << fail.query
                << "\n  shrunk: " << fail.shrunk_query << "\n";
      // Standalone repro: the database text plus both queries, replayable
      // by loading the database in the shell and re-issuing the query.
      std::string path = out_dir + "/query-repro-" +
                         std::to_string(fail.case_seed) + ".txt";
      std::ofstream file(path);
      if (file) {
        file << "# query fuzz failure, seed " << fail.case_seed << "\n"
             << "# failure: " << fail.description << "\n"
             << "# query: " << fail.query << "\n"
             << "# shrunk query: " << fail.shrunk_query << "\n"
             << "# shrunk failure: " << fail.shrunk_description << "\n"
             << fail.database;
        std::cerr << "  repro -> " << path << "\n";
      } else {
        std::cerr << "  (cannot write " << path << ")\n";
      }
    }
    query_ok = query_report.ok();
  }

  if (!trace_path.empty()) {
    itdb::obs::InstallGlobalTracer(nullptr);
    std::ofstream trace_file(trace_path);
    if (trace_file) {
      trace_file << tracer.ToChromeTraceJson();
      std::cout << "trace: " << tracer.size() << " span(s) -> " << trace_path
                << (tracer.dropped() > 0
                        ? " (" + std::to_string(tracer.dropped()) +
                              " dropped at the span cap)"
                        : "")
                << "\n";
    } else {
      std::cerr << "error: cannot write " << trace_path << "\n";
    }
  }

  for (const itdb::fuzz::FuzzFailure& fail : report.failures) {
    std::string dump = itdb::fuzz::FormatRepro(fail.repro, fail.failure,
                                               fail.case_seed);
    std::string path =
        out_dir + "/repro-" + std::to_string(fail.case_seed) + ".itdb";
    std::ofstream file(path);
    if (file) {
      file << dump;
      std::cerr << "FAIL [" << fail.failure.oracle << "] seed "
                << fail.case_seed << " -> " << path << "\n";
    } else {
      std::cerr << "FAIL [" << fail.failure.oracle << "] seed "
                << fail.case_seed << " (cannot write " << path << ")\n";
    }
    if (verbose) {
      std::cerr << "  detail: " << fail.failure.detail << "\n"
                << "  shrink: " << fail.shrink_stats.accepted
                << " reductions in " << fail.shrink_stats.attempts
                << " attempts\n"
                << dump;
    }
  }
  return report.ok() && query_ok ? 0 : 1;
}
