// The itdb query service: a multi-client socket front end over one shared
// Database.
//
// One event-loop thread owns accept + read + statement assembly (via
// Session::AppendLine, so the wire grammar IS the shell grammar); complete
// statements are queued per connection and executed on util/thread_pool
// workers, one at a time per connection (statements from one client run in
// the order sent; statements from different clients run concurrently).
// Before a statement executes it passes admission control: past the bound
// the server answers `retry` immediately instead of queueing -- see
// admission.h.  That one gate is all of admission: an admitted statement
// runs under the session's budgets and deadline like any other.  `status`
// and `quit` bypass admission (they must work best under overload).
//
// Listens on a Unix-domain socket (options.unix_path) or loopback TCP
// (options.port; 0 picks an ephemeral port, readable from port() after
// Start).  Wire format: protocol.h.  Stop() drains in-flight statements and
// joins the loop; the destructor calls it.
//
// Concurrency invariants worth knowing before editing:
//   * A Session's AppendLine runs only on the event loop; its Execute runs
//     only on the single worker pumping that connection.  The two touch
//     disjoint Session state (pending_ vs everything else), so neither
//     locks.
//   * Workers never block on other statements except as a result-table
//     follower, and a follower's leader is already running
//     (result_cache.h), so progress never depends on a free worker.
//   * Sockets are written only by the pumping worker, under the
//     connection's write mutex, with MSG_NOSIGNAL (a vanished client is an
//     EPIPE to handle, not a SIGPIPE to die from).

#ifndef ITDB_SERVER_SERVER_H_
#define ITDB_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/normalize_cache.h"
#include "core/stats.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"
#include "util/status.h"

namespace itdb {
namespace server {

struct ServerOptions {
  /// Unix-domain socket path.  Non-empty wins over `port`; an existing
  /// socket file at the path is replaced.
  std::string unix_path;
  /// TCP port on 127.0.0.1; 0 = ephemeral (read port() after Start).
  /// Ignored when unix_path is set; both unset is an error.
  int port = -1;
  int backlog = 64;
  AdmissionOptions admission;
  /// Per-session defaults (deadline, budgets, read_only, ...).  The
  /// normalize_cache, result_cache and stats_cache fields are
  /// overwritten with the server's own shared instances.
  SessionOptions session;
  /// Byte budget of the versioned result table shared by every session
  /// (result_cache.h); 0 keeps no outcome but still coalesces concurrent
  /// identical statements.
  std::size_t result_cache_bytes = std::size_t{1} << 24;
};

class Server {
 public:
  /// The Database must outlive the server; all access to it must go through
  /// shared_database() once the server is running.
  Server(Database* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop.  Fails (without starting
  /// anything) if the socket cannot be set up.
  Status Start();

  /// Stops accepting, drains in-flight statements, joins the loop, closes
  /// every connection.  Idempotent.
  void Stop();

  /// The bound TCP port (after Start, when listening on TCP).
  int port() const { return port_; }

  std::int64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  std::int64_t connections_active() const {
    return connections_active_.load(std::memory_order_relaxed);
  }
  const AdmissionQueue& admission() const { return admission_; }
  const ResultCache& result_cache() const { return result_cache_; }
  const StatsCache& stats_cache() const { return stats_cache_; }
  SharedDatabase& shared_database() { return shared_db_; }

 private:
  struct Connection;

  void EventLoop();
  void OnReadable(const std::shared_ptr<Connection>& conn);
  /// Queues `statement` for the connection and ensures a worker is pumping.
  void EnqueueStatement(const std::shared_ptr<Connection>& conn,
                        std::string statement);
  /// Worker entry: executes the connection's queued statements in order.
  void PumpConnection(const std::shared_ptr<Connection>& conn);
  void HandleStatement(Connection& conn, const std::string& statement);
  std::string StatusReport();
  static void WriteFrame(Connection& conn, ResponseStatus status,
                         std::string_view payload);

  ServerOptions options_;
  SharedDatabase shared_db_;
  NormalizeCache normalize_cache_;
  ResultCache result_cache_;
  StatsCache stats_cache_;
  AdmissionQueue admission_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // Self-pipe: Stop() wakes poll().
  int port_ = -1;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::int64_t> requests_total_{0};
  std::atomic<std::int64_t> connections_active_{0};

  // In-flight pump tasks; Stop() waits for zero.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::int64_t inflight_ = 0;
};

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_SERVER_H_
