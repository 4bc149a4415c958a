// The itdb query service daemon.
//
//   ./itdb_serve --unix /tmp/itdb.sock db.itdb           # Unix socket
//   ./itdb_serve --port 7411 db.itdb                     # loopback TCP
//   ./itdb_serve --port 0 db.itdb                        # ephemeral port
//   ./itdb_serve --port 0 --data-dir /var/itdb           # durable catalog
//
// Preloads the given relation files, then serves the shell grammar over the
// wire protocol (src/server/protocol.h) until SIGINT / SIGTERM.  A sample
// client lives at tools/itdb_client.py.
//
// Options:
//   --unix PATH         listen on a Unix-domain socket at PATH
//   --port N            listen on 127.0.0.1:N (0 = ephemeral; the chosen
//                       port is printed on startup)
//   --max-pending N     admission bound: requests held at once (default 64)
//   --deadline-ms N     per-query wall-clock budget (default: unlimited)
//   --cache-bytes N     byte budget of the versioned result table
//                       (default 16 MiB; 0 keeps no result, but concurrent
//                       identical statements still share one evaluation)
//   --read-only         reject catalog mutation and server-side file writes
//   --data-dir DIR      durable catalog: recover from DIR's snapshot + WAL
//                       on startup, WAL-log every mutation, and enable the
//                       checkpoint / `as of` / history verbs
//   --fsync             fsync the WAL after every mutation (power-loss
//                       durability; default is process-crash durability)
//   --checkpoint-every N  automatic checkpoint after N WAL records
//
// Preloaded files are seeded into the durable catalog on first boot;
// relations recovered from --data-dir win over same-named file contents on
// later boots, so restarting with the same command line is idempotent.
//
// Startup prints one line per bound endpoint:
//   itdb_serve listening on unix:/tmp/itdb.sock
//   itdb_serve listening on tcp:127.0.0.1:7411

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <semaphore.h>
#include <sstream>
#include <string>
#include <vector>

#include "server/server.h"
#include "storage/database.h"
#include "storage/wal/storage_engine.h"

namespace {

// Signal flow: the handler posts a semaphore (async-signal-safe); main
// blocks on it and runs the orderly Server::Stop.
sem_t g_stop_sem;

void HandleSignal(int) { sem_post(&g_stop_sem); }

int Usage() {
  std::cerr << "usage: itdb_serve (--unix PATH | --port N) [--max-pending N]"
               " [--deadline-ms N] [--cache-bytes N]"
               " [--read-only] [--data-dir DIR] [--fsync]"
               " [--checkpoint-every N] [file.itdb ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  itdb::server::ServerOptions options;
  itdb::storage::StorageEngineOptions storage_options;
  std::string data_dir;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--unix" && i + 1 < argc) {
      options.unix_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--max-pending" && i + 1 < argc) {
      options.admission.max_pending = std::atoll(argv[++i]);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      options.session.deadline_ms = std::atoll(argv[++i]);
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      options.result_cache_bytes =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--read-only") {
      options.session.read_only = true;
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--fsync") {
      storage_options.fsync = true;
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      storage_options.auto_checkpoint_records =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (options.unix_path.empty() && options.port < 0) return Usage();

  itdb::Database db;
  std::unique_ptr<itdb::storage::StorageEngine> engine;
  if (!data_dir.empty()) {
    itdb::Result<std::unique_ptr<itdb::storage::StorageEngine>> opened =
        itdb::storage::StorageEngine::Open(data_dir, &db, storage_options);
    if (!opened.ok()) {
      std::cerr << "error: " << data_dir << ": " << opened.status() << "\n";
      return 1;
    }
    engine = std::move(opened).value();
    options.session.engine = engine.get();
    std::cout << "itdb_serve recovered version " << engine->version()
              << " from " << data_dir << "\n";
  }

  for (const std::string& path : files) {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    itdb::Result<itdb::Database> loaded =
        itdb::Database::FromText(buffer.str());
    if (!loaded.ok()) {
      std::cerr << "error: " << path << ": " << loaded.status() << "\n";
      return 1;
    }
    for (const std::string& name : loaded.value().Names()) {
      if (engine != nullptr && db.Has(name)) continue;  // Recovered state wins.
      itdb::Status s =
          engine != nullptr
              ? engine->ApplyAdd(db, name, loaded.value().Get(name).value())
              : db.Add(name, loaded.value().Get(name).value());
      if (!s.ok()) {
        std::cerr << "error: " << s << "\n";
        return 1;
      }
    }
  }

  itdb::server::Server server(&db, options);
  itdb::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  if (!options.unix_path.empty()) {
    std::cout << "itdb_serve listening on unix:" << options.unix_path
              << std::endl;
  } else {
    std::cout << "itdb_serve listening on tcp:127.0.0.1:" << server.port()
              << std::endl;
  }

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
  }
  std::cout << "itdb_serve shutting down\n";
  server.Stop();
  return 0;
}
