// The traced run: replays a workload's streams in one thread, in-process,
// through the public entry point of every layer, and times each call from
// here -- no spans inside the program.

#ifndef ITDB_PERFBENCH_TRACED_H_
#define ITDB_PERFBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <string>

#include "workload.h"

namespace e2e {

struct TracedResult {
  /// Per-layer metrics by name (the `per_layer` names of BENCHMARK.json
  /// that this replay measures).
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Human-readable findings (shape check, layer split, mismatches).
  std::vector<std::string> notes;
};

/// Writes the seeded log of `w` (service-rw) into the data dir `dir`
/// through a durable session, as a server would have logged it.
void WriteSeedLog(const Workload& w, const std::string& dir);

/// Replays `w` for `seconds`, keeping its storage engine's files under
/// `data_dir`.  Recovery starts from a copy of `seed_dir` when `w` has a
/// seeded log, else from the catalog as itdb_serve's first boot logs it.
TracedResult RunTraced(const Workload& w, const std::string& data_dir,
                       const std::string& seed_dir, double seconds);

}  // namespace e2e

#endif  // ITDB_PERFBENCH_TRACED_H_
