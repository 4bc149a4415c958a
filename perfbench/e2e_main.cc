// itdb_e2e: the end-to-end benchmark of the itdb query service.
//
//   itdb_e2e --workload thm41|service|service-rw --seed N --seconds S
//            --trace 0|1 --serve-bin PATH [--work-dir DIR] [--root DIR]
//
// --trace 0 starts itdb_serve on a Unix socket (several times, for the
// set-up time), drives the workload's seeded streams through it in a closed
// loop, checks every reply, proves the data dir recovers the final catalog,
// and prints the end-to-end metrics.  On workloads without a write schedule
// a write probe runs first, on a server of its own.  Timings are scaled to
// a nominal host speed measured alongside them (host_speed.h).  --trace 1
// runs the same streams through the server once more for its counters,
// then replays them in-process with every layer's entry point timed, and
// prints the per-layer metrics.  Either way the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
// builds this binary and passes --serve-bin; README.md maps metrics to
// layers and workloads.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"
#include "host_speed.h"
#include "storage/database.h"
#include "storage/wal/storage_engine.h"
#include "traced.h"
#include "workload.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string serve_bin;
  std::string work_dir = ".bench_build/work";
  std::string root = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stoi(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--serve-bin") {
      a.serve_bin = value;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--root") {
      a.root = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.serve_bin.empty() || a.seconds < 1) {
    Die("usage: itdb_e2e --workload W --seed N --seconds S --trace 0|1 "
        "--serve-bin PATH");
  }
  return a;
}

struct Metric {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_sps", "1/s"},
    {"read_p50_ms", "ms"},     {"read_p95_ms", "ms"},
    {"write_p50_ms", "ms"},    {"write_p95_ms", "ms"},
    {"ok_share", "share"},     {"peak_rss_mb", "MiB"},
    {"write_amp", "ratio"},    {"space_amp", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"query.parse_us", "us"},
    {"query.parse_us_p95", "us"},
    {"query.optimize_us", "us"},
    {"query.optimize_us_p95", "us"},
    {"query.sorts_us", "us"},
    {"query.sorts_us_p95", "us"},
    {"query.plan_us", "us"},
    {"query.plan_us_p95", "us"},
    {"query.eval_us", "us"},
    {"query.eval_us_p95", "us"},
    {"query.est_qerror", "ratio"},
    {"query.est_qerror_p95", "ratio"},
    {"query.thm41_exponent_join", "exponent"},
    {"query.thm41_exponent_neg", "exponent"},
    {"query.thm41_exponent_univ", "exponent"},
    {"analysis.analyze_us", "us"},
    {"analysis.analyze_us_p95", "us"},
    {"analysis.absint_us", "us"},
    {"analysis.absint_us_p95", "us"},
    {"analysis.runs_per_read", "count"},
    {"analysis.cert_slack_log2", "log2"},
    {"analysis.cert_bounded_share", "share"},
    {"core.normalize_cache_hit_rate", "share"},
    {"core.pairs_candidate_per_tuple", "ratio"},
    {"core.pruned_share", "share"},
    {"core.closures_full_per_stmt", "count"},
    {"core.stats_us", "us"},
    {"server.status_rtt_us", "us"},
    {"server.render_us", "us"},
    {"server.frame_us", "us"},
    {"server.session_us", "us"},
    {"server.session_us_p95", "us"},
    {"server.unattributed_us", "us"},
    {"server.trace_overhead_share", "share"},
    {"server.cache_hit_rate", "share"},
    {"server.cache_invalidations_per_write", "count"},
    {"server.batched_share", "share"},
    {"server.shed_share", "share"},
    {"storage.catalog_load_us", "us"},
    {"storage.recovery_us", "us"},
    {"storage.commit_us", "us"},
    {"storage.wal_bytes_per_write", "B"},
    {"storage.checkpoint_us", "us"},
    {"storage.checkpoints", "count"},
};

// Everything one run writes lives under this directory of the checkout,
// and is removed when the run ends.
struct Paths {
  std::string dir;
  std::string catalog;
  /// service-rw: the seeded log the server recovers (copied per start).
  std::string seed_dir;
  std::string log;
  int starts = 0;

  std::string NextSocket() {
    return dir + "/s" + std::to_string(starts) + ".sock";
  }
  std::string NextDataDir() { return dir + "/data" + std::to_string(starts); }
};

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// A running server with one control connection.
struct Running {
  ServerProcess process;
  Connection control;
  std::string socket;
  std::string data_dir;
  double setup_s = 0;
};

// Starts itdb_serve and waits for its first answer: the set-up time is
// spawn + catalog load + listen + one round trip.  The catalog comes from
// the text file, WAL-logged into an empty data dir, or (service-rw) from
// replaying a copy of the seeded log.
void Start(const Workload& w, const Args& args, Paths& paths, Running& run) {
  run.socket = paths.NextSocket();
  run.data_dir = paths.NextDataDir();
  ++paths.starts;
  std::vector<std::string> argv = {
      args.serve_bin,  "--unix",
      run.socket,      "--data-dir",
      run.data_dir,    "--checkpoint-every",
      std::to_string(w.checkpoint_every)};
  if (w.seed_log.empty()) {
    fs::create_directories(run.data_dir);
    argv.push_back(paths.catalog);
  } else {
    fs::copy(paths.seed_dir, run.data_dir, fs::copy_options::recursive);
  }
  const Clock::time_point t0 = Clock::now();
  run.process.Start(argv, w.threads, paths.log);
  run.control.Connect(run.socket, 60);
  itdb::server::ResponseFrame frame = run.control.Call("list");
  run.setup_s = SecondsSince(t0);
  int relations = 0;
  for (char ch : frame.payload) relations += ch == '\n';
  if (frame.status != itdb::server::ResponseStatus::kOk ||
      relations != w.relations) {
    Die("server started without its catalog: " + frame.payload);
  }
}

// The catalog the data dir recovers, in text form.
std::string RecoveredCatalog(const std::string& dir) {
  itdb::Database db;
  itdb::Result<std::unique_ptr<itdb::storage::StorageEngine>> engine =
      itdb::storage::StorageEngine::Open(dir, &db);
  if (!engine.ok()) return "recovery failed: " + engine.status().ToString();
  return db.ToText();
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const Metric* metrics, std::size_t count,
                 const std::map<std::string, double>& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    if (it == values.end()) Die(std::string("metric not measured: ") + metrics[i].name);
    if (!std::isfinite(it->second)) {
      std::cerr << "warning: " << metrics[i].name << " has no samples\n";
    }
    if (i > 0) json += ", ";
    json += "\"" + std::string(metrics[i].name) + "\": {\"value\": " +
            Num(it->second) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void PrintDescriptors(const Workload& w, const LoopResult& loop,
                      double seconds,
                      const std::map<std::string, double>& status) {
  const double reads = static_cast<double>(loop.read_ms.size());
  std::cout << "workload " << w.name << ": seed " << w.seed
            << ", closed loop, " << w.connections << " connections"
            << ", ITDB_THREADS " << w.threads << ", " << w.relations
            << " relations / " << w.tuples << " tuples, "
            << w.families.size() << " statement families, "
            << w.excluded.size() << " check queries excluded\n";
  std::cout << "  recorded " << loop.recorded << " statements in "
            << seconds << " s; repeat share "
            << SafeRatio(static_cast<double>(loop.repeats), reads)
            << " (fresh-copy share " << SafeRatio(loop.fresh, reads)
            << ", target " << w.fresh_share << "), write share "
            << SafeRatio(static_cast<double>(loop.write_ms.size()),
                         static_cast<double>(loop.recorded))
            << " (a drop/define pair every " << w.write_pair_interval_s
            << " s; 0 = writes only in the write probe), stream wraps "
            << loop.wraps << "\n";
  auto get = [&](const char* k) {
    auto it = status.find(k);
    return it == status.end() ? 0.0 : it->second;
  };
  std::cout << "  result cache " << get("cache_bytes") << " of "
            << get("cache_budget") << " bytes, " << get("cache_entries")
            << " entries; fsync off; checkpoint every " << w.checkpoint_every
            << " WAL records; " << get("storage.checkpoints")
            << " checkpoints this server\n";
  for (const std::string& e : w.excluded) {
    std::cout << "  excluded: " << e << "\n";
  }
}

constexpr int kProbeChunks = 20;
constexpr int kSetupStarts = 25;

// The write probe, in kProbeChunks chunks 100 ms apart, so that it spans a
// few seconds.  define_t holds each define's chunk, so quantiles are taken
// per chunk and a burst of interference moves one chunk, not the estimate.
// The host's speed is sampled before and after each chunk.
LoopResult RunProbe(const Workload& w, Connection& conn, HostSpeed& speed) {
  LoopResult total;
  const std::size_t per_chunk = w.probe.size() / kProbeChunks;
  for (int k = 0; k < kProbeChunks; ++k) {
    if (k > 0) usleep(100000);
    speed.Sample(k + 0.5, 5);
    const auto first = w.probe.begin() + static_cast<std::ptrdiff_t>(k * per_chunk);
    LoopResult chunk =
        RunOps(w, conn, std::vector<Op>(first, first + static_cast<std::ptrdiff_t>(per_chunk)));
    speed.Sample(k + 0.5, 5);
    for (double& t : chunk.define_t) t = k + 0.5;
    total.Merge(chunk);
  }
  return total;
}

// What a server's data dir holds once the server is done.
struct Durable {
  bool recovered = false;
  double data_bytes = 0;
  double catalog_bytes = 0;
};

// Durability: a final checkpoint, the server's own dump of its catalog, and
// a fresh engine over the data dir must reproduce that dump.  Stops the
// server.
Durable Finish(Running& run, const Paths& paths) {
  const std::string saved = paths.dir + "/final.itdb";
  if (run.control.Call("checkpoint").status != itdb::server::ResponseStatus::kOk ||
      run.control.Call("save " + saved).status !=
          itdb::server::ResponseStatus::kOk) {
    Die("final checkpoint or save failed");
  }
  run.process.Stop();
  std::ifstream saved_in(saved);
  std::stringstream saved_text;
  saved_text << saved_in.rdbuf();
  Durable d;
  d.data_bytes = static_cast<double>(DirBytes(run.data_dir));
  d.catalog_bytes = static_cast<double>(saved_text.str().size());
  d.recovered = RecoveredCatalog(run.data_dir) == saved_text.str();
  return d;
}

int RunEndToEnd(const Workload& w, const Args& args, Paths& paths) {
  std::map<std::string, double> m;
  // Writes come from the loop's schedule (service-rw) or from the probe.
  // The probe runs first, on a server of its own: after the loop, the same
  // defines took 20% longer in some runs than in others, and its
  // bitemporal history would dominate the loop server's RSS.  `w0`..`w1`
  // brackets the phase that made the writes, on `writer`.
  const bool scheduled = w.write_pair_interval_s > 0;
  HostSpeed probe_speed;
  LoopResult probe;
  std::map<std::string, double> w0;
  std::map<std::string, double> w1;
  Durable probe_durable;
  if (!scheduled) {
    Running writer;
    Start(w, args, paths, writer);
    w0 = FetchCounters(writer.control);
    probe = RunProbe(w, writer.control, probe_speed);
    w1 = FetchCounters(writer.control);
    probe_durable = Finish(writer, paths);
  }

  // Set-up alone, several times, each at the host speed sampled just
  // before it; the loop's server's start is the last sample.
  std::vector<double> setup;
  std::vector<double> setup_raw;
  HostSpeed setup_speed;
  Running run;
  for (int i = 0; i < kSetupStarts; ++i) {
    Running spare;
    Running& started = i + 1 < kSetupStarts ? spare : run;
    setup_speed.Sample(i, 5);
    Start(w, args, paths, started);
    setup_raw.push_back(started.setup_s);
    setup.push_back(started.setup_s / setup_speed.Slowdown(i, i + 1));
  }

  const std::map<std::string, double> c0 = FetchCounters(run.control);
  const double warmup = std::min(1.0, 0.1 * args.seconds);
  HostSpeed loop_speed;
  LoopResult loop = RunClosedLoop(w, run.socket, warmup, args.seconds,
                                  &loop_speed, &run.process);
  const std::map<std::string, double> c1 = FetchCounters(run.control);
  // Peak RSS of serving a fixed prefix of the stream (the whole loop, if
  // the loop ended before it).
  m["peak_rss_mb"] = loop.rss_mb > 0 ? loop.rss_mb : run.process.PeakRssMb();
  if (scheduled) {
    w0 = c0;
    w1 = c1;
  }
  const LoopResult& writes = scheduled ? loop : probe;
  LoopResult total = loop;
  if (!scheduled) total.Merge(probe);
  const Durable loop_durable = Finish(run, paths);
  const bool recovered =
      loop_durable.recovered && (scheduled || probe_durable.recovered);
  const Durable& written_dir = scheduled ? loop_durable : probe_durable;

  // Timings are scaled to the nominal host speed (host_speed.h): per
  // one-second window of the loop, over the whole write probe.
  const int windows = args.seconds;
  const double span = args.seconds;
  std::vector<double> all_t = loop.read_t;
  all_t.insert(all_t.end(), loop.write_t.begin(), loop.write_t.end());
  const std::vector<double> slow = loop_speed.Windows(span, windows);
  // The scaled estimates at the host's speed of the moment, for the log.
  std::map<std::string, double> raw;
  m["setup_s"] = Median(setup);
  m["throughput_sps"] = NormalizedRate(all_t, span, windows, slow);
  m["read_p50_ms"] =
      NormalizedQuantile(loop.read_t, loop.read_ms, span, windows, 0.5, slow);
  m["read_p95_ms"] =
      NormalizedQuantile(loop.read_t, loop.read_ms, span, windows, 0.95, slow);
  if (scheduled) {
    m["write_p50_ms"] = NormalizedQuantile(writes.define_t, writes.define_ms,
                                           span, windows, 0.5, slow);
    m["write_p95_ms"] = NormalizedQuantile(writes.define_t, writes.define_ms,
                                           span, windows, 0.95, slow);
    raw["write_p50_ms"] = NormalizedQuantile(writes.define_t,
                                             writes.define_ms, span, windows,
                                             0.5);
    raw["write_p95_ms"] = NormalizedQuantile(writes.define_t,
                                             writes.define_ms, span, windows,
                                             0.95);
  } else {
    // One slowdown over the whole probe, which lasts a few seconds: per
    // chunk, a handful of reference samples added more noise than they
    // removed.
    const double probe_slow = probe_speed.Slowdown(0, kProbeChunks);
    raw["write_p50_ms"] = MedianOfWindowQuantiles(
        writes.define_t, writes.define_ms, kProbeChunks, kProbeChunks, 0.5);
    raw["write_p95_ms"] = MedianOfWindowQuantiles(
        writes.define_t, writes.define_ms, kProbeChunks, kProbeChunks, 0.95);
    m["write_p50_ms"] = raw["write_p50_ms"] / probe_slow;
    m["write_p95_ms"] = raw["write_p95_ms"] / probe_slow;
  }
  raw["setup_s"] = Median(setup_raw);
  raw["throughput_sps"] = NormalizedRate(all_t, span, windows);
  raw["read_p50_ms"] =
      NormalizedQuantile(loop.read_t, loop.read_ms, span, windows, 0.5);
  raw["read_p95_ms"] =
      NormalizedQuantile(loop.read_t, loop.read_ms, span, windows, 0.95);
  const std::int64_t failed = total.failed() + (recovered ? 0 : 1);
  m["ok_share"] = 1.0 - SafeRatio(static_cast<double>(failed),
                                  static_cast<double>(total.attempted));
  const double written = Delta(w0, w1, "storage.wal_appended_bytes") +
                         Delta(w0, w1, "storage.snapshot_bytes");
  m["write_amp"] = SafeRatio(written, static_cast<double>(writes.define_bytes));
  m["space_amp"] =
      SafeRatio(written_dir.data_bytes, written_dir.catalog_bytes);

  PrintDescriptors(w, loop, args.seconds, c1);
  struct Samples {
    const char* name;
    std::size_t n;
    std::string how;
  };
  const std::string per_window = "scaled per one-second window, pooled";
  const std::string write_how =
      scheduled ? "defines, " + per_window
                : "defines, scaled, median of " +
                      std::to_string(kProbeChunks) + " chunks";
  const Samples samples[] = {
      {"setup_s", setup.size(), "median of starts, each scaled"},
      {"throughput_sps", static_cast<std::size_t>(loop.recorded),
       "scaled per one-second window, mean of the middle half of " +
           std::to_string(windows) + " windows"},
      {"read_p50_ms", loop.read_ms.size(), per_window},
      {"read_p95_ms", loop.read_ms.size(), per_window},
      {"write_p50_ms", writes.define_ms.size(), write_how},
      {"write_p95_ms", writes.define_ms.size(), write_how},
      {"ok_share", static_cast<std::size_t>(total.attempted), ""},
      {"peak_rss_mb", 1,
       loop.rss_mb > 0 ? "after " + std::to_string(w.rss_after) + " statements"
                       : "after the loop, which ended before " +
                             std::to_string(w.rss_after) + " statements"},
      {"write_amp", writes.write_ms.size(), ""},
      {"space_amp", 1, ""},
  };
  for (const Samples& sample : samples) {
    for (const Metric& metric : kEndToEnd) {
      if (std::string(metric.name) != sample.name) continue;
      std::cout << "  " << sample.name << " = " << Num(m[sample.name]) << " "
                << metric.unit << " (n=" << sample.n;
      if (!sample.how.empty()) std::cout << "; " << sample.how;
      if (raw.count(sample.name) != 0) {
        std::cout << "; " << Num(raw[sample.name]) << " at the host's speed";
      }
      std::cout << ")\n";
    }
  }
  std::cout << "  host slowdown (reference task median / "
            << kReferenceNominalUs << " us): set-up "
            << setup_speed.MedianMicros() / kReferenceNominalUs << ", loop "
            << loop_speed.MedianMicros() / kReferenceNominalUs << " ("
            << loop_speed.size() << " samples)\n";
  std::cout << "  write latency from "
            << (scheduled ? "the loop's write schedule"
                          : "the write probe, on a server of its own")
            << "; recovery check " << (recovered ? "ok" : "FAILED") << "\n";
  for (const std::string& s : total.mismatches) {
    std::cerr << "mismatch: " << s << "\n";
  }
  PrintResult(failed == 0, total.attempted, failed, kEndToEnd,
              std::size(kEndToEnd), m);
  return 0;
}

// Pins the benchmark, its threads and every server it starts to one CPU.
// A reply then wakes its reader on the same CPU instead of waking a halted
// vCPU, whose latency the host decides, and the host speed is sampled on
// the CPU that serves.  Every run takes the same CPU: the second it may
// use, since CPU 0 takes most device interrupts on a VM.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("cannot read the CPU affinity");
  }
  int chosen = -1;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && seen < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      chosen = cpu;
      ++seen;
    }
  }
  if (chosen < 0) Die("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    Die("cannot pin the benchmark to one CPU");
  }
}

int RunTrace(const Workload& w, const Args& args, Paths& paths) {
  // The server's share of the run: counters only, through the existing
  // metrics / status verbs.
  const double server_s = std::max(1.0, 0.3 * args.seconds);
  std::map<std::string, double> m;
  Running run;
  Start(w, args, paths, run);
  const std::map<std::string, double> c0 = FetchCounters(run.control);
  LoopResult loop = RunClosedLoop(w, run.socket, 0, server_s);
  const std::map<std::string, double> c1 = FetchCounters(run.control);
  const bool scheduled = w.write_pair_interval_s > 0;
  const LoopResult writes = scheduled ? loop : RunOps(w, run.control, w.probe);
  const std::map<std::string, double> c2 = FetchCounters(run.control);
  const std::map<std::string, double>& w0 = scheduled ? c0 : c1;
  const std::map<std::string, double>& w1 = scheduled ? c1 : c2;
  std::vector<double> rtt;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t = Clock::now();
    run.control.Call("status");
    rtt.push_back(MicrosBetween(t, Clock::now()));
  }
  run.process.Stop();

  const double reads = static_cast<double>(loop.read_ms.size());
  const double hits = Delta(c0, c1, "cache_hits");
  m["analysis.runs_per_read"] =
      SafeRatio(Delta(c0, c1, "analysis.runs"), reads);
  m["server.cache_hit_rate"] =
      SafeRatio(hits, hits + Delta(c0, c1, "cache_misses"));
  m["server.cache_invalidations_per_write"] =
      SafeRatio(Delta(w0, w1, "cache_invalidations"),
                static_cast<double>(writes.write_ms.size()));
  m["server.batched_share"] =
      SafeRatio(Delta(c0, c1, "batch_coalesced"), reads);
  m["server.shed_share"] = SafeRatio(Delta(c0, c1, "shed_total"),
                                     static_cast<double>(loop.attempted));
  m["server.status_rtt_us"] = Median(rtt);
  m["storage.checkpoints"] = Delta(c0, c2, "storage.checkpoints");
  PrintDescriptors(w, loop, server_s, c2);

  TracedResult traced =
      RunTraced(w, paths.dir + "/traced", paths.seed_dir,
                std::max(1.0, args.seconds - server_s));
  for (const auto& [name, value] : traced.metrics) m[name] = value;
  for (const std::string& note : traced.notes) std::cout << note << "\n";
  std::cout << "analysis runs per read (server): "
            << m["analysis.runs_per_read"] << "\n";

  LoopResult total = loop;
  if (!scheduled) total.Merge(writes);
  const std::int64_t failed = total.failed() + traced.failed;
  for (const std::string& s : total.mismatches) {
    std::cerr << "mismatch: " << s << "\n";
  }
  PrintResult(failed == 0, total.attempted + traced.attempted, failed,
              kPerLayer, std::size(kPerLayer), m);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) try {
  using namespace e2e;
  const Args args = ParseArgs(argc, argv);
  PinToOneCpu();
  setenv("ITDB_THREADS", std::to_string(kServerThreads).c_str(), 1);
  Workload w = MakeWorkload(args.workload, args.seed, args.seconds, args.root);
  Paths paths;
  paths.dir = args.work_dir + "/" + args.workload + "-" +
              std::to_string(getpid());
  fs::remove_all(paths.dir);
  fs::create_directories(paths.dir);
  paths.catalog = paths.dir + "/catalog.itdb";
  paths.log = paths.dir + "/server.log";
  paths.seed_dir = paths.dir + "/seed";
  {
    std::ofstream catalog(paths.catalog);
    catalog << w.catalog_text;
  }
  if (!w.seed_log.empty()) WriteSeedLog(w, paths.seed_dir);
  const int rc = args.trace != 0 ? RunTrace(w, args, paths)
                                 : RunEndToEnd(w, args, paths);
  fs::remove_all(paths.dir);
  return rc;
} catch (const std::exception& e) {
  e2e::Die(std::string("fatal: ") + e.what());
}
