// End-to-end tests of the socket server: a real Unix-domain socket, real
// client connections, concurrent statements.
//
// The marquee guarantee under test: N concurrent clients running read-only
// queries receive BYTE-IDENTICAL payloads to a serial Session run of the
// same statements -- the engine's bit-identity (work partitioned by input
// index, merged in input order) composed with the server's reader lock.

#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace itdb {
namespace server {
namespace {

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

// A blocking protocol client over one Unix-socket connection.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  }

  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void SendStatement(const std::string& statement) {
    std::string wire = statement + "\n";
    ASSERT_EQ(send(fd_, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }

  ResponseFrame ReadFrame() {
    while (true) {
      Result<std::optional<ResponseFrame>> next = decoder_.Next();
      EXPECT_TRUE(next.ok()) << next.status();
      if (!next.ok()) return {};
      if (next.value().has_value()) return *next.value();
      char buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "server closed mid-frame";
      if (n <= 0) return {};
      decoder_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  ResponseFrame Request(const std::string& statement) {
    SendStatement(statement);
    return ReadFrame();
  }

  // Drops the connection abruptly (a vanished client).
  void Drop() {
    close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  ResponseDecoder decoder_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Database> db = Database::FromText(kCatalog);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    socket_path_ = "/tmp/itdb_srv_test_" + std::to_string(getpid()) + "_" +
                   std::to_string(++socket_serial_) + ".sock";
  }

  void TearDown() override {
    server_.reset();
    unlink(socket_path_.c_str());
  }

  void StartServer(ServerOptions options = {}) {
    options.unix_path = socket_path_;
    server_ = std::make_unique<Server>(&db_, options);
    Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status;
  }

  Database db_;
  std::string socket_path_;
  std::unique_ptr<Server> server_;
  static int socket_serial_;
};

int ServerTest::socket_serial_ = 0;

TEST_F(ServerTest, AnswersShellGrammarOverTheWire) {
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());

  ResponseFrame frame = client.Request("ask EXISTS t . Service(t)");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_EQ(frame.payload, "true\n");

  frame = client.Request("show nope");
  EXPECT_EQ(frame.status, ResponseStatus::kError);
  EXPECT_NE(frame.payload.find("error:"), std::string::npos);

  frame = client.Request("query Window(t)");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_NE(frame.payload.find("relation result"), std::string::npos);

  // The cursor lives in the connection's session.
  frame = client.Request("fetch 1");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_NE(frame.payload.find("relation fetch"), std::string::npos);
}

TEST_F(ServerTest, MultiLineDefineAssemblesAcrossPackets) {
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.SendStatement("define relation Fresh(T: time) {");
  client.SendStatement("  [2+8n];");
  ResponseFrame frame = client.Request("}");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  frame = client.Request("ask Fresh(10)");
  EXPECT_EQ(frame.payload, "true\n");
  // The define went through the shared database: a second connection
  // observes it.
  TestClient other(socket_path_);
  ASSERT_TRUE(other.connected());
  EXPECT_EQ(other.Request("ask Fresh(10)").payload, "true\n");
}

TEST_F(ServerTest, StatusVerbReportsQueueAndVersion) {
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  ResponseFrame frame = client.Request("status");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  for (const char* field :
       {"connections_active ", "requests_total ", "queue_depth ",
        "queue_limit ", "shed_total ", "batch_leads ", "db_version "}) {
    EXPECT_NE(frame.payload.find(field), std::string::npos)
        << field << " missing from:\n"
        << frame.payload;
  }
  client.Request("drop Audit");
  frame = client.Request("status");
  EXPECT_NE(frame.payload.find("db_version 1"), std::string::npos)
      << frame.payload;
}

TEST_F(ServerTest, QuitAnswersByeAndCloses) {
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  ResponseFrame frame = client.Request("quit");
  EXPECT_EQ(frame.status, ResponseStatus::kBye);
}

TEST_F(ServerTest, DroppedClientMidDefineLeavesNoPartialState) {
  StartServer();
  {
    TestClient client(socket_path_);
    ASSERT_TRUE(client.connected());
    client.SendStatement("define relation Orphan(T: time) {");
    client.SendStatement("  [3n];");
    client.Drop();  // Vanish mid-statement, braces unbalanced.
  }
  // The server keeps serving and the half-defined relation never landed.
  TestClient probe(socket_path_);
  ASSERT_TRUE(probe.connected());
  ResponseFrame frame = probe.Request("ask EXISTS t . Orphan(t)");
  EXPECT_EQ(frame.status, ResponseStatus::kError);
  frame = probe.Request("list");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_EQ(frame.payload.find("Orphan"), std::string::npos);
}

TEST_F(ServerTest, EightConcurrentClientsMatchSerialExecutionBitForBit) {
  StartServer();
  // Read-only statements with nontrivial output, shaped differently per
  // client so sessions cannot accidentally share cursors.
  const std::vector<std::string> statements = {
      "query Service(t) AND t <= 123",
      "query Window(t) OR Audit(t)",
      "ask EXISTS t . Service(t) AND Window(t)",
      "query Service(t) AND Audit(t)",
      "enumerate Window 0 40",
      "query NOT Service(t) AND t >= 0 AND t <= 60",
      "ask EXISTS t . Audit(t) AND Window(t)",
      "query Audit(t) AND t <= 90",
  };
  constexpr int kClients = 8;
  constexpr int kRounds = 4;

  // Serial baseline through a plain Session on an identical catalog.
  Result<Database> baseline_db = Database::FromText(kCatalog);
  ASSERT_TRUE(baseline_db.ok());
  Database serial_db = std::move(baseline_db).value();
  SharedDatabase serial_shared(&serial_db);
  std::vector<std::string> expected(statements.size());
  for (std::size_t i = 0; i < statements.size(); ++i) {
    Session session(&serial_shared);
    std::ostringstream out;
    Status status = session.Execute(statements[i], out);
    ASSERT_TRUE(status.ok()) << statements[i] << ": " << status;
    expected[i] = out.str();
  }

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(socket_path_);
      if (!client.connected()) {
        failures[static_cast<std::size_t>(c)] = "connect failed";
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Each client walks the statements from its own offset, so at any
        // instant different plans are in flight and identical plans can
        // coalesce in the result table.
        for (std::size_t s = 0; s < statements.size(); ++s) {
          std::size_t idx =
              (s + static_cast<std::size_t>(c)) % statements.size();
          ResponseFrame frame = client.Request(statements[idx]);
          if (frame.status != ResponseStatus::kOk ||
              frame.payload != expected[idx]) {
            failures[static_cast<std::size_t>(c)] =
                "statement \"" + statements[idx] + "\" diverged:\n" +
                frame.payload;
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  }
}

TEST_F(ServerTest, OverloadShedsWithRetriableStatus) {
  ServerOptions options;
  options.admission.max_pending = 0;  // Deterministic: shed every query.
  StartServer(options);
  const std::int64_t shed_metric_before =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];

  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  ResponseFrame frame = client.Request("ask EXISTS t . Service(t)");
  EXPECT_EQ(frame.status, ResponseStatus::kRetry);
  EXPECT_NE(frame.payload.find("retry"), std::string::npos);
  frame = client.Request("list");
  EXPECT_EQ(frame.status, ResponseStatus::kRetry);

  // `status` is exempt from admission and reports the sheds.
  frame = client.Request("status");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_NE(frame.payload.find("shed_total 2"), std::string::npos)
      << frame.payload;
  EXPECT_EQ(server_->admission().shed_total(), 2);
  const std::int64_t shed_metric_after =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];
  EXPECT_EQ(shed_metric_after - shed_metric_before, 2);
  // `quit` still works: overload never wedges a polite goodbye.
  EXPECT_EQ(client.Request("quit").status, ResponseStatus::kBye);
}

// Admission is the total gate alone: a statement whose analysis warns of
// a period blowup (A012: coprime periods 97 and 101, lcm 9797) is admitted
// and evaluated like any other under the tightest total bound, and
// `status` reports no second queue.
TEST_F(ServerTest, OneAdmittedSlotServesAPeriodBlowupJoin) {
  Result<Database> db = Database::FromText(R"(
relation P(T: time) {
  [1+97n];
}
relation Q(T: time) {
  [2+101n];
}
)");
  ASSERT_TRUE(db.ok()) << db.status();
  db_ = std::move(db).value();
  ServerOptions options;
  options.admission.max_pending = 1;
  StartServer(options);

  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  ResponseFrame frame = client.Request("query P(t) AND Q(t)");
  EXPECT_EQ(frame.status, ResponseStatus::kOk) << frame.payload;
  EXPECT_NE(frame.payload.find("[2426+9797n]"), std::string::npos)
      << frame.payload;
  ResponseFrame status = client.Request("status");
  EXPECT_EQ(status.status, ResponseStatus::kOk);
  EXPECT_NE(status.payload.find("queue_limit 1\n"), std::string::npos)
      << status.payload;
  EXPECT_NE(status.payload.find("shed_total 0\n"), std::string::npos)
      << status.payload;
  EXPECT_EQ(status.payload.find("heavy"), std::string::npos)
      << status.payload;
  EXPECT_EQ(client.Request("quit").status, ResponseStatus::kBye);
}

TEST_F(ServerTest, FloodedServerShedsButServesRetries) {
  ServerOptions options;
  options.admission.max_pending = 2;
  StartServer(options);
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> answered(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(socket_path_);
      if (!client.connected()) return;
      for (int i = 0; i < 6; ++i) {
        // Client-side retry loop: a shed request is retriable verbatim.
        for (int attempt = 0; attempt < 50; ++attempt) {
          ResponseFrame frame =
              client.Request("ask EXISTS t . Service(t) AND Audit(t)");
          if (frame.status == ResponseStatus::kOk) {
            if (frame.payload == "true\n") {
              ++answered[static_cast<std::size_t>(c)];
            }
            break;
          }
          if (frame.status != ResponseStatus::kRetry) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[static_cast<std::size_t>(c)], 6) << "client " << c;
  }
}

TEST_F(ServerTest, ServerMetricsArePublished) {
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Request("ask EXISTS t . Service(t)");
  ResponseFrame frame = client.Request("metrics");
  EXPECT_EQ(frame.status, ResponseStatus::kOk);
  EXPECT_NE(frame.payload.find("server.commands"), std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("server.queries"), std::string::npos);
  EXPECT_NE(frame.payload.find("server.command_ns"), std::string::npos);
  EXPECT_NE(frame.payload.find("server.requests"), std::string::npos);
}

TEST_F(ServerTest, TcpEphemeralPortWorks) {
  ServerOptions options;
  options.port = 0;
  server_ = std::make_unique<Server>(&db_, options);
  Status status = server_->Start();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(server_->port(), 0);
}

TEST_F(ServerTest, StopDrainsAndRestarts) {
  StartServer();
  {
    TestClient client(socket_path_);
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Request("list").status, ResponseStatus::kOk);
  }
  server_->Stop();
  server_.reset();
  // A second server on the same path starts cleanly.
  StartServer();
  TestClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Request("list").status, ResponseStatus::kOk);
}

}  // namespace
}  // namespace server
}  // namespace itdb
