// The query-service path: what a statement costs once it leaves the
// evaluator and has to travel through the session layer (parse -> dispatch
// -> eval -> render) and the socket server (frame -> admission -> pump ->
// frame back).
//
// The catalog and queries are deliberately cheap -- a handful of lrp tuples
// with small periods -- so the timings isolate the service overhead the
// server adds, not the algebra underneath.  BM_Session_* measures the
// in-process layer the shell and server share; BM_Server_UnixRoundTrip adds
// the wire (one persistent Unix-domain connection, one frame per
// iteration); BM_Server_ConcurrentClients adds contention (8 clients firing
// the identical query at once, where the result table coalesces followers
// onto the leader's evaluation or answers them from its kept entry -- the
// `coalesced` counter reports how often a follower waited on a leader).

#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace {

using itdb::Database;
using itdb::Result;
using itdb::server::ResponseDecoder;
using itdb::server::ResponseFrame;
using itdb::server::ResponseStatus;
using itdb::server::Server;
using itdb::server::ServerOptions;
using itdb::server::Session;
using itdb::server::SharedDatabase;

// Service visits at 13 mod 30 intersect audits; windows never do (odd vs
// even phases) -- cheap queries with a non-trivial answer.
constexpr const char* kCatalog = R"(
relation Service(T: time) {
  [3+10n] : T >= 3;
}
relation Window(T: time) {
  [4n];
}
relation Audit(T: time) {
  [1+6n];
}
)";

constexpr const char* kAsk = "ask EXISTS t . Service(t) AND Audit(t)";

Database MakeCatalog() {
  Result<Database> db = Database::FromText(kCatalog);
  if (!db.ok()) std::abort();
  return std::move(db).value();
}

// --- In-process session layer -------------------------------------------

void BM_Session_AskRoundTrip(benchmark::State& state) {
  Database db = MakeCatalog();
  SharedDatabase shared(&db);
  Session session(&shared);
  for (auto _ : state) {
    std::ostringstream out;
    itdb::Status s = session.Execute(kAsk, out);
    if (!s.ok()) state.SkipWithError(std::string(s.message()).c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["queries"] =
      benchmark::Counter(static_cast<double>(session.stats().queries));
}
BENCHMARK(BM_Session_AskRoundTrip);

void BM_Session_QueryRender(benchmark::State& state) {
  Database db = MakeCatalog();
  SharedDatabase shared(&db);
  Session session(&shared);
  for (auto _ : state) {
    std::ostringstream out;
    itdb::Status s = session.Execute("query Service(t) AND t <= 200", out);
    if (!s.ok()) state.SkipWithError(std::string(s.message()).c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Session_QueryRender);

// --- Over the wire -------------------------------------------------------

// A blocking client: one connection, one request/response at a time.
class BenchClient {
 public:
  explicit BenchClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) std::abort();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      std::abort();
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  ResponseFrame RoundTrip(const std::string& statement) {
    std::string request = statement + "\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) std::abort();
      sent += static_cast<std::size_t>(n);
    }
    char buf[4096];
    while (true) {
      Result<std::optional<ResponseFrame>> frame = decoder_.Next();
      if (!frame.ok()) std::abort();
      if (frame.value().has_value()) return *std::move(frame).value();
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) std::abort();
      decoder_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  ResponseDecoder decoder_;
};

std::string BenchSocketPath() {
  static std::atomic<int> serial{0};
  return "/tmp/itdb_bench_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(serial.fetch_add(1)) + ".sock";
}

void BM_Server_UnixRoundTrip(benchmark::State& state) {
  Database db = MakeCatalog();
  ServerOptions options;
  options.unix_path = BenchSocketPath();
  Server server(&db, options);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  {
    BenchClient client(options.unix_path);
    for (auto _ : state) {
      ResponseFrame frame = client.RoundTrip(kAsk);
      if (frame.status != ResponseStatus::kOk) {
        state.SkipWithError(frame.payload.c_str());
        break;
      }
      benchmark::DoNotOptimize(frame);
    }
  }
  server.Stop();
  state.counters["requests"] =
      benchmark::Counter(static_cast<double>(server.requests_total()));
}
BENCHMARK(BM_Server_UnixRoundTrip);

// Eight clients fire the identical query simultaneously, once per
// iteration: the admission queue sees a burst and the result table turns
// duplicate concurrent evaluations into followers of one leader.  Thread
// start/join overhead is part of each iteration (identical every round, and
// dwarfed by the eight round trips it fences).
void BM_Server_ConcurrentClients(benchmark::State& state) {
  const int kClients = static_cast<int>(state.range(0));
  Database db = MakeCatalog();
  ServerOptions options;
  options.unix_path = BenchSocketPath();
  Server server(&db, options);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  {
    std::vector<std::unique_ptr<BenchClient>> clients;
    clients.reserve(static_cast<std::size_t>(kClients));
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<BenchClient>(options.unix_path));
    }
    std::atomic<bool> failed{false};
    for (auto _ : state) {
      std::vector<std::thread> threads;
      threads.reserve(clients.size());
      for (auto& client : clients) {
        threads.emplace_back([&client, &failed] {
          ResponseFrame frame = client->RoundTrip(
              "query Service(t) AND Audit(t) AND t <= 600");
          if (frame.status != ResponseStatus::kOk) failed.store(true);
        });
      }
      for (std::thread& t : threads) t.join();
      if (failed.load()) {
        state.SkipWithError("request failed");
        break;
      }
    }
    state.counters["coalesced"] = benchmark::Counter(
        static_cast<double>(server.result_cache().stats().coalesced));
    state.counters["batch_leads"] = benchmark::Counter(
        static_cast<double>(server.result_cache().stats().leads));
  }
  server.Stop();
}
BENCHMARK(BM_Server_ConcurrentClients)->Arg(8)->UseRealTime();

}  // namespace

ITDB_BENCHMARK_MAIN();
