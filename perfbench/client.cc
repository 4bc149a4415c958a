#include "client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace e2e {

using itdb::server::ResponseFrame;
using itdb::server::ResponseStatus;

void ServerProcess::Start(const std::vector<std::string>& argv, int threads,
                          const std::string& log_path) {
  Stop();
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const std::string env_threads = "ITDB_THREADS=" + std::to_string(threads);
  const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log < 0) Die("cannot open " + log_path);
  pid_ = fork();
  if (pid_ < 0) Die("fork failed");
  if (pid_ == 0) {
    dup2(log, STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    putenv(const_cast<char*>(env_threads.c_str()));
    execv(args[0], args.data());
    _exit(127);
  }
  LiveChildren().push_back(pid_);
  close(log);
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > 20) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    usleep(1000);
  }
  std::erase(LiveChildren(), pid_);
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  Die("cannot read the server's peak RSS");
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

void Connection::Connect(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point start = Clock::now();
  while (true) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket failed");
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return;
    }
    close(fd_);
    fd_ = -1;
    if (SecondsSince(start) > timeout_s) Die("server did not start: " + path);
    usleep(200);
  }
}

ResponseFrame Connection::Call(const std::string& statement) {
  const std::string line = statement + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = send(fd_, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("send failed");
    sent += static_cast<std::size_t>(n);
  }
  char buffer[1 << 16];
  while (true) {
    itdb::Result<std::optional<ResponseFrame>> frame = decoder_.Next();
    if (!frame.ok()) Die("bad reply frame: " + frame.status().ToString());
    if (frame.value().has_value()) return std::move(*frame.value());
    const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("server closed the connection");
    decoder_.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

std::map<std::string, double> FetchCounters(Connection& conn) {
  std::map<std::string, double> out;
  for (const char* verb : {"metrics", "status"}) {
    ResponseFrame frame = conn.Call(verb);
    if (frame.status != ResponseStatus::kOk) Die(std::string(verb) + " failed");
    std::istringstream lines(frame.payload);
    std::string name;
    std::string value;
    while (lines >> name >> value) {
      std::string rest;
      std::getline(lines, rest);
      if (value.find('=') != std::string::npos) continue;  // Histograms.
      out[name] = std::stod(value);
    }
  }
  return out;
}

void LoopResult::Merge(const LoopResult& o) {
  read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
  read_t.insert(read_t.end(), o.read_t.begin(), o.read_t.end());
  write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
  write_t.insert(write_t.end(), o.write_t.begin(), o.write_t.end());
  define_ms.insert(define_ms.end(), o.define_ms.begin(), o.define_ms.end());
  define_t.insert(define_t.end(), o.define_t.begin(), o.define_t.end());
  attempted += o.attempted;
  recorded += o.recorded;
  errors += o.errors;
  retries += o.retries;
  wrong += o.wrong;
  repeats += o.repeats;
  fresh += o.fresh;
  define_bytes += o.define_bytes;
  rss_mb = std::max(rss_mb, o.rss_mb);
  wraps += o.wraps;
  for (const std::string& m : o.mismatches) {
    if (mismatches.size() < 5) mismatches.push_back(m);
  }
}

namespace {

// Counts `frame` into `r` as a failure unless it is the expected reply.
void CheckReply(const Workload& w, const Op& op, const ResponseFrame& frame,
                LoopResult& r) {
  const PoolEntry& e = w.pool[op.entry];
  if (frame.status == ResponseStatus::kRetry) {
    ++r.retries;
    return;
  }
  const bool ok = frame.status == ResponseStatus::kOk;
  if (ok && frame.payload == JoinFresh(e.expected, op.fresh)) return;
  ++(ok ? r.wrong : r.errors);
  if (r.mismatches.size() < 5) {
    r.mismatches.push_back(JoinFresh(e.text, op.fresh) + " -> " +
                           frame.payload);
  }
}

std::int64_t DefineBytes(const Workload& w, const Op& op) {
  const PoolEntry& e = w.pool[op.entry];
  return e.write && e.text[0].rfind("define", 0) == 0
             ? static_cast<std::int64_t>(e.text[0].size())
             : 0;
}

void Record(const Workload& w, const Op& op, double t, double ms,
            LoopResult& r) {
  ++r.recorded;
  const bool write = w.pool[op.entry].write;
  (write ? r.write_ms : r.read_ms).push_back(ms);
  (write ? r.write_t : r.read_t).push_back(t);
  if (DefineBytes(w, op) > 0) {
    r.define_ms.push_back(ms);
    r.define_t.push_back(t);
  }
}

}  // namespace

LoopResult RunOps(const Workload& w, Connection& conn,
                  const std::vector<Op>& ops) {
  LoopResult r;
  const Clock::time_point start = Clock::now();
  for (const Op& op : ops) {
    const std::string text = JoinFresh(w.pool[op.entry].text, op.fresh);
    const Clock::time_point t0 = Clock::now();
    ResponseFrame frame = conn.Call(text);
    const double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
    ++r.attempted;
    Record(w, op, MicrosBetween(start, t0) / 1e6, ms, r);
    r.define_bytes += DefineBytes(w, op);
    CheckReply(w, op, frame, r);
  }
  return r;
}

LoopResult RunClosedLoop(const Workload& w, const std::string& socket_path,
                         double warmup_s, double seconds, HostSpeed* speed,
                         const ServerProcess* server) {
  // Whether a pool entry has been sent before, by any connection: a
  // verbatim resend of one is a repeat the result cache can serve.
  std::vector<std::atomic<bool>> sent(w.pool.size());
  std::vector<LoopResult> results(w.streams.size());
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < w.streams.size(); ++c) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->Connect(socket_path, 10);
  }
  const Clock::time_point begin = Clock::now();
  const Clock::time_point record_from =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const Clock::time_point record_until =
      record_from + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.streams.size(); ++c) {
    threads.emplace_back([&, c] {
      StreamCursor cursor(w, static_cast<int>(c));
      LoopResult& r = results[c];
      HostSpeed* const sampler = c == 0 ? speed : nullptr;
      const ServerProcess* const rss_of = c == 0 ? server : nullptr;
      double next_sample = 0;
      while (true) {
        Clock::time_point now = Clock::now();
        const double recorded_s = MicrosBetween(record_from, now) / 1e6;
        if (sampler != nullptr && recorded_s >= next_sample &&
            now < record_until) {
          sampler->Sample(recorded_s);
          next_sample = recorded_s + kSpeedSampleInterval;
          now = Clock::now();
        }
        // A started drop/define pair is finished, so the final catalog
        // holds `Own`.
        if (now >= record_until && !cursor.mid_pair()) break;
        const Op op = cursor.Next(MicrosBetween(begin, now) / 1e6);
        const std::string text = JoinFresh(w.pool[op.entry].text, op.fresh);
        const Clock::time_point t0 = Clock::now();
        const bool repeat = op.fresh == 0 && sent[op.entry].exchange(true);
        ResponseFrame frame = conns[c]->Call(text);
        const double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
        // Warm-up statements are checked and count toward write
        // amplification (the server's byte counters cannot tell the phases
        // apart), but their latencies are not recorded.
        ++r.attempted;
        r.define_bytes += DefineBytes(w, op);
        CheckReply(w, op, frame, r);
        if (t0 < record_from || t0 >= record_until) continue;
        Record(w, op, MicrosBetween(record_from, t0) / 1e6, ms, r);
        if (rss_of != nullptr && r.recorded == w.rss_after) {
          r.rss_mb = rss_of->PeakRssMb();
        }
        if (repeat) ++r.repeats;
        if (op.fresh != 0) ++r.fresh;
      }
      r.wraps = cursor.wraps();
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  for (const LoopResult& r : results) total.Merge(r);
  return total;
}

}  // namespace e2e
