#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <deque>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/wal/storage_engine.h"
#include "util/errno_message.h"
#include "util/thread_pool.h"

namespace itdb {
namespace server {

namespace {

// Entries of the server-wide normalization memo-cache every session shares.
constexpr std::size_t kNormalizeCacheCapacity = std::size_t{1} << 12;

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::InvalidArgument(std::string("fcntl: ") +
                                   ErrnoMessage(errno));
  }
  return Status::Ok();
}

}  // namespace

struct Server::Connection {
  explicit Connection(int fd_in, SharedDatabase* db,
                      const SessionOptions& session_options)
      : fd(fd_in), session(db, session_options) {}

  ~Connection() {
    if (fd >= 0) close(fd);
  }

  const int fd;
  LineBuffer lines;   // Event-loop thread only.
  Session session;    // AppendLine: loop thread; Execute: pumping worker.
  std::atomic<bool> open{true};

  std::mutex mu;                     // Guards queue + busy.
  std::deque<std::string> queue;     // Assembled statements awaiting a pump.
  bool busy = false;                 // A worker is pumping this connection.
  std::mutex write_mu;
};

Server::Server(Database* db, ServerOptions options)
    : options_(std::move(options)),
      // Seeding with the recovered LSN keeps post-restart versions disjoint
      // from pre-crash ones (options_ is already move-initialized here).
      shared_db_(db, options_.session.engine != nullptr
                         ? options_.session.engine->version()
                         : 0),
      normalize_cache_(kNormalizeCacheCapacity),
      result_cache_(options_.result_cache_bytes),
      admission_(options_.admission) {
  options_.session.normalize_cache = &normalize_cache_;
  options_.session.result_cache = &result_cache_;
  options_.session.stats_cache = &stats_cache_;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.unix_path.empty() && options_.port < 0) {
    return Status::InvalidArgument(
        "server needs a unix_path or a TCP port");
  }
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: \"" +
                                     options_.unix_path + "\"");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::InvalidArgument(std::string("socket: ") +
                                     ErrnoMessage(errno));
    }
    unlink(options_.unix_path.c_str());
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
      Status status = Status::InvalidArgument(
          "bind \"" + options_.unix_path + "\": " + ErrnoMessage(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::InvalidArgument(std::string("socket: ") +
                                     ErrnoMessage(errno));
    }
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
      Status status = Status::InvalidArgument(
          "bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
          ErrnoMessage(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  Status status = SetNonBlocking(listen_fd_);
  if (status.ok() && listen(listen_fd_, options_.backlog) < 0) {
    status = Status::InvalidArgument(std::string("listen: ") +
                                     ErrnoMessage(errno));
  }
  if (status.ok() && pipe(wake_fds_) < 0) {
    status = Status::InvalidArgument(std::string("pipe: ") +
                                     ErrnoMessage(errno));
  }
  if (status.ok()) status = SetNonBlocking(wake_fds_[0]);
  if (!status.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    if (wake_fds_[0] >= 0) close(wake_fds_[0]);
    if (wake_fds_[1] >= 0) close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    return status;
  }
  // The global pool starts empty and Submit does not grow it, so make sure
  // statement pumps have workers to land on.
  ThreadPool::Global().EnsureWorkers(ThreadPool::DefaultThreads());
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { EventLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake poll(); the loop notices stopping_ and drains out.
  (void)!write(wake_fds_[1], "x", 1);
  if (loop_.joinable()) loop_.join();
  {
    // In-flight pump tasks still hold Connection refs; let them finish so
    // their sockets see complete responses before we return.
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  close(listen_fd_);
  listen_fd_ = -1;
  close(wake_fds_[0]);
  close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
}

void Server::EventLoop() {
  std::map<int, std::shared_ptr<Connection>> connections;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& [fd, conn] : connections) {
      fds.push_back({fd, POLLIN, 0});
    }
    int ready = poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      // Timeout tick: reap connections a worker closed (quit / EPIPE).
      for (auto it = connections.begin(); it != connections.end();) {
        if (!it->second->open.load(std::memory_order_acquire)) {
          connections_active_.fetch_sub(1, std::memory_order_relaxed);
          it = connections.erase(it);
        } else {
          ++it;
        }
      }
      continue;
    }
    if (fds[1].revents & POLLIN) {
      char buf[64];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      while (true) {
        int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd).ok()) {
          close(fd);
          continue;
        }
        connections.emplace(fd, std::make_shared<Connection>(
                                    fd, &shared_db_, options_.session));
        connections_active_.fetch_add(1, std::memory_order_relaxed);
        obs::AddGlobalCounter("server.connections", 1);
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = connections.find(fds[i].fd);
      if (it == connections.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (fds[i].revents & POLLIN) OnReadable(conn);
      const bool hung_up = (fds[i].revents & (POLLHUP | POLLERR)) != 0;
      if (hung_up || !conn->open.load(std::memory_order_acquire)) {
        if (hung_up) {
          // A dropped client unwinds cleanly: any half-assembled statement
          // is abandoned without touching the shared database, and queued
          // statements finish against a socket nobody reads (EPIPE, eaten
          // by WriteFrame).
          conn->session.AbortPending();
          conn->open.store(false, std::memory_order_release);
        }
        connections_active_.fetch_sub(1, std::memory_order_relaxed);
        connections.erase(it);
      }
    }
  }
  // Shutdown: abandon assembly, drop loop-side refs.  Pump workers holding
  // refs finish their statements; Stop() waits for them.
  for (auto& [fd, conn] : connections) {
    conn->session.AbortPending();
    connections_active_.fetch_sub(1, std::memory_order_relaxed);
  }
  connections.clear();
}

void Server::OnReadable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->lines.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error: no more statements will complete.
    conn->session.AbortPending();
    conn->open.store(false, std::memory_order_release);
    break;
  }
  while (std::optional<std::string> line = conn->lines.NextLine()) {
    std::optional<std::string> statement = conn->session.AppendLine(*line);
    if (!statement.has_value()) continue;
    if (StatementVerb(*statement).empty()) continue;
    EnqueueStatement(conn, *std::move(statement));
  }
}

void Server::EnqueueStatement(const std::shared_ptr<Connection>& conn,
                              std::string statement) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  obs::AddGlobalCounter("server.requests", 1);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->queue.push_back(std::move(statement));
    if (!conn->busy) {
      conn->busy = true;
      schedule = true;
    }
  }
  if (!schedule) return;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_;
  }
  ThreadPool::Global().Submit([this, conn] {
    PumpConnection(conn);
    // Notify under the lock: the moment inflight_ hits zero with the lock
    // released, Stop() may return and the Server (cv included) may die.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_;
    inflight_cv_.notify_all();
  });
}

void Server::PumpConnection(const std::shared_ptr<Connection>& conn) {
  while (true) {
    std::string statement;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->queue.empty()) {
        conn->busy = false;
        return;
      }
      statement = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    HandleStatement(*conn, statement);
  }
}

void Server::HandleStatement(Connection& conn, const std::string& statement) {
  std::string_view verb = StatementVerb(statement);
  if (Session::IsQuitStatement(statement)) {
    WriteFrame(conn, ResponseStatus::kBye, "");
    // Half-close the socket; poll() reports the hangup and the loop reaps.
    shutdown(conn.fd, SHUT_RDWR);
    conn.open.store(false, std::memory_order_release);
    return;
  }
  if (verb == "status") {
    // Deliberately unadmitted: the overload dashboard must answer while the
    // server sheds everything else.
    WriteFrame(conn, ResponseStatus::kOk, StatusReport());
    return;
  }
  if (!admission_.TryAdmit()) {
    WriteFrame(conn, ResponseStatus::kRetry,
               "overloaded: admission queue is full, retry later\n");
    return;
  }
  std::ostringstream out;
  Status status = conn.session.Execute(statement, out);
  admission_.Release();
  WriteFrame(conn, status.ok() ? ResponseStatus::kOk : ResponseStatus::kError,
             out.str());
}

std::string Server::StatusReport() {
  std::ostringstream out;
  out << "connections_active " << connections_active() << "\n";
  out << "requests_total " << requests_total() << "\n";
  out << "queue_depth " << admission_.pending() << "\n";
  out << "queue_limit " << admission_.options().max_pending << "\n";
  out << "admitted_total " << admission_.admitted_total() << "\n";
  out << "shed_total " << admission_.shed_total() << "\n";
  ResultCache::Stats cache = result_cache_.stats();
  out << "batch_leads " << cache.leads << "\n";
  out << "batch_coalesced " << cache.coalesced << "\n";
  out << "cache_hits " << cache.hits << "\n";
  out << "cache_misses " << cache.misses << "\n";
  out << "cache_evictions " << cache.evictions << "\n";
  out << "cache_invalidations " << cache.invalidations << "\n";
  out << "cache_entries " << cache.entries << "\n";
  out << "cache_bytes " << cache.bytes << "\n";
  out << "cache_budget " << result_cache_.byte_budget() << "\n";
  StatsCache::Stats rstats = stats_cache_.stats();
  out << "stats_cache_hits " << rstats.hits << "\n";
  out << "stats_cache_misses " << rstats.misses << "\n";
  out << "db_version " << shared_db_.version() << "\n";
  if (const storage::StorageEngine* engine = options_.session.engine) {
    // The engine mutates only under the writer lock; read its stats under
    // the reader lock for a consistent line set.
    storage::StorageStats durable = shared_db_.WithRead(
        [&](const Database&) { return engine->stats(); });
    out << "durable_version " << durable.version << "\n";
    out << "snapshot_version " << durable.snapshot_version << "\n";
    out << "wal_records " << durable.wal_records << "\n";
    out << "wal_bytes " << durable.wal_bytes << "\n";
    out << "wal_appended_bytes "
        << obs::MetricsRegistry::Global()
               .GetCounter("storage.wal_appended_bytes")
               ->value()
        << "\n";
    out << "replayed_records " << durable.replayed_records << "\n";
    out << "recovered_torn_tail " << (durable.recovered_torn_tail ? 1 : 0)
        << "\n";
  }
  return out.str();
}

void Server::WriteFrame(Connection& conn, ResponseStatus status,
                        std::string_view payload) {
  const std::string frame = EncodeResponse(status, payload);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = send(conn.fd, frame.data() + sent, frame.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket is nonblocking; wait for drain.  Response frames are
      // bounded by relation-dump sizes, so briefly blocking the pumping
      // worker here is the simple, correct backpressure.
      pollfd pfd{conn.fd, POLLOUT, 0};
      (void)poll(&pfd, 1, /*timeout_ms=*/1000);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE & friends: the client vanished mid-response.
    conn.open.store(false, std::memory_order_release);
    return;
  }
}

}  // namespace server
}  // namespace itdb
