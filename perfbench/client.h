// The load generator's side of the socket: the itdb_serve child process,
// one blocking client connection, and the closed loop that drives a
// workload's streams through it.

#ifndef ITDB_PERFBENCH_CLIENT_H_
#define ITDB_PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_speed.h"
#include "server/protocol.h"
#include "workload.h"

namespace e2e {

/// An itdb_serve child.  Stop() (and the destructor) end it with SIGTERM
/// -- the daemon's orderly shutdown -- and wait for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` (argv[0] is the binary) with ITDB_THREADS=`threads`,
  /// stdout and stderr appended to `log_path`.
  void Start(const std::vector<std::string>& argv, int threads,
             const std::string& log_path);
  void Stop();
  /// High-water resident set size of the child, in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
};

/// One client connection over a Unix socket, one statement at a time.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects, retrying until the server listens or `timeout_s` passes.
  void Connect(const std::string& path, double timeout_s);
  /// Sends one statement line and waits for its reply frame.
  itdb::server::ResponseFrame Call(const std::string& statement);

 private:
  int fd_ = -1;
  itdb::server::ResponseDecoder decoder_;
};

/// Counters of the `metrics` and `status` verbs, by name.
std::map<std::string, double> FetchCounters(Connection& conn);

struct LoopResult {
  /// Latencies, and when each statement was sent (seconds after recording
  /// began), so estimates can be taken per window of time.
  std::vector<double> read_ms;
  std::vector<double> read_t;
  std::vector<double> write_ms;
  std::vector<double> write_t;
  /// The `define` statements among the writes.  Write latency is theirs:
  /// a drop carries no data and takes a third of a define's time, so with
  /// drops counted the median of a drop/define stream would fall in the
  /// gap between the two.
  std::vector<double> define_ms;
  std::vector<double> define_t;
  /// Statements sent and checked, warm-up included.
  std::int64_t attempted = 0;
  /// Statements whose latency was recorded.
  std::int64_t recorded = 0;
  std::int64_t errors = 0;
  std::int64_t retries = 0;
  std::int64_t wrong = 0;
  std::int64_t repeats = 0;
  std::int64_t fresh = 0;
  std::int64_t define_bytes = 0;
  /// The server's peak RSS once Workload::rss_after statements were
  /// recorded (0: the loop ended before).
  double rss_mb = 0;
  /// Times a connection ran past the end of its stream and started over.
  std::int64_t wraps = 0;
  /// The first few failures, for the log.
  std::vector<std::string> mismatches;

  std::int64_t failed() const { return errors + retries + wrong; }
  void Merge(const LoopResult& o);
};

/// Drives every stream of `w` over its own connection in a closed loop:
/// each connection sends its next statement once the previous reply has
/// arrived.  Statements sent in the first `warmup_s` are not recorded;
/// recording stops `seconds` later.  Every reply is checked.  With `speed`,
/// the first connection samples the host's speed between two statements
/// every kSpeedSampleInterval of recording; with `server`, it reads the
/// server's peak RSS after Workload::rss_after statements.
LoopResult RunClosedLoop(const Workload& w, const std::string& socket_path,
                         double warmup_s, double seconds,
                         HostSpeed* speed = nullptr,
                         const ServerProcess* server = nullptr);

/// Seconds between two host-speed samples of the closed loop: with a
/// reference task of about 0.4 ms, 2% of the loop's time.
inline constexpr double kSpeedSampleInterval = 0.025;

/// Sends `ops` in order on `conn`, timing and checking each.
LoopResult RunOps(const Workload& w, Connection& conn,
                  const std::vector<Op>& ops);

}  // namespace e2e

#endif  // ITDB_PERFBENCH_CLIENT_H_
