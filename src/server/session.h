// One client's conversation with the engine: the parse -> analyze ->
// optimize -> evaluate pipeline behind both the interactive shell and the
// socket server.
//
// Before this layer existed the pipeline lived inline in the REPL loop
// (src/shell/shell.cc), so nothing else could drive it.  A Session owns
// everything per-client -- budgets and deadline, the multi-line
// statement buffer, a result cursor, error/command counters -- while the
// Database is shared through SharedDatabase's reader-writer lock:
// read-only verbs (ask / query / explain / profile / check / ...) evaluate
// under the shared lock, mutating verbs (define / load / drop / coalesce /
// simplify) under the exclusive one.  The shell is now a thin client of
// Feed(); the server drives AppendLine()/Execute() directly so statement
// assembly stays on its event loop while execution runs on pool workers.
//
// Statement grammar: exactly the shell's command set (help prints it), plus
//   fetch [n]          next n tuples of the last `query` result (cursor)
//   set [name value]   per-session options; bare `set` lists them
// `quit` / `exit` are session-terminating and surface as Disposition::kQuit
// from Feed (Execute never sees them; use IsQuitStatement for routing).
//
// One pipeline per statement.  A query verb (ask / query / tlcheck / sat /
// profile / explain) builds one query::Prepared (query/prepared.h) and
// every step reads it -- `tlcheck` and `sat` from the first-order
// definition of their temporal-logic formula (tl/ltl.h), answered yes/no
// as FORALL T . phi(T) and as the relation of phi(T).  The server has
// already passed the statement through its admission gate (admission.h),
// so `ask`, `query`, `tlcheck` and `sat` run
//
//   parse -> key -> result table (result_cache.h): done entry | wait for
//   the in-flight leader | lead: analyze -> compile -> evaluate
//
// and `profile` runs the same analyze -> compile -> evaluate without the
// table.  Every statement runs the full pipeline: analysis, optimizer and
// cost-based planner.  The key is the verb, the parsed statement's text
// and the session's budgets and deadline.  A hit or a follower pays the
// parse and the key, nothing else: only the leader analyzes, and the plan's
// rewrites and the table's certified cacheability check both read that one
// analysis.  `explain` renders the same compiled plan evaluation and
// `profile` run.
//
// Budgets: every statement evaluates under the session's one tuple budget
// (max_tuples), the split budget's AlgebraOptions default and, with
// deadline_ms set, a CancellationToken (util/thread_pool.h) that fails it
// with kResourceExhausted when the deadline elapses (Theorem 4.1 makes the
// work polynomial in the data; the budgets bound the constants).  Results
// stay in the table only when their root certificate is bounded (certified
// cacheability).

#ifndef ITDB_SERVER_SESSION_H_
#define ITDB_SERVER_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/normalize_cache.h"
#include "core/relation.h"
#include "query/eval.h"
#include "query/prepared.h"
#include "server/result_cache.h"
#include "server/shared_database.h"
#include "util/status.h"

namespace itdb {

namespace storage {
class StorageEngine;
}  // namespace storage

namespace server {

struct SessionOptions {
  /// Per-statement tuple budget of any relation (AlgebraOptions::
  /// max_tuples).  The split-product budget keeps its AlgebraOptions
  /// default.
  std::int64_t max_tuples = AlgebraOptions{}.max_tuples;
  /// Wall-clock budget per query-evaluating command, in milliseconds.
  /// 0 = unlimited.  Mutable through `set deadline_ms`.
  std::int64_t deadline_ms = 0;
  /// Reject verbs that mutate the shared catalog or touch server-side
  /// files (define / load / save / drop / coalesce / simplify).
  bool read_only = false;
  /// Normalization memo-cache shared across sessions (not owned; null =
  /// one private cache per query evaluation).
  NormalizeCache* normalize_cache = nullptr;
  /// Versioned result table shared across sessions (not owned; null =
  /// off): coalesces concurrent identical statements and keeps their
  /// outcomes between catalog writes.  Keyed by the verb, the parsed
  /// statement, the budgets and deadline, and the database
  /// version, so every reply it serves is byte-identical.
  ResultCache* result_cache = nullptr;
  /// Per-relation statistics memo for the cost-based planner and the
  /// `stats` verb, shared across sessions (not owned; null recomputes).
  StatsCache* stats_cache = nullptr;
  /// Durable storage engine (not owned; null = in-memory only).  When set,
  /// every catalog mutation is WAL-logged through it -- under the same
  /// WithWrite lock as the in-memory change -- and the `checkpoint`,
  /// `as of`, and `history` verbs come alive.
  storage::StorageEngine* engine = nullptr;
};

class Session {
 public:
  explicit Session(SharedDatabase* db, SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  struct FeedResult {
    enum class Disposition {
      kDone,      // A statement executed (status holds its outcome).
      kNeedMore,  // Line buffered; the statement wants more lines.
      kQuit,      // quit / exit: the caller should end the session.
    };
    Disposition disposition = Disposition::kDone;
    Status status;
  };

  /// Feeds one input line: assembles multi-line statements, executes
  /// complete ones (output to `out`), recognizes quit/exit.
  FeedResult Feed(std::string_view line, std::ostream& out);

  /// Statement assembly only: buffers `line` and returns the completed
  /// statement once braces balance (single-line statements complete
  /// immediately).  Comment stripping applies to statement-initial lines
  /// only -- continuation lines pass through to the relation parser intact.
  std::optional<std::string> AppendLine(std::string_view line);

  /// Executes one complete statement.  Output and error reports go to
  /// `out`; the returned Status is the command's outcome.  Never executes
  /// quit/exit (route those via Feed or IsQuitStatement).
  Status Execute(std::string_view statement, std::ostream& out);

  /// True for quit / exit statements.
  static bool IsQuitStatement(std::string_view statement);

  /// A partially assembled statement is buffered (EOF or disconnect now
  /// would abandon it).
  bool has_pending() const { return !pending_.empty(); }

  /// Discards the partial statement, if any; returns whether there was one.
  /// The shared database is untouched -- assembly never executes anything.
  bool AbortPending();

  struct Stats {
    std::int64_t commands = 0;
    std::int64_t queries = 0;  // ask / query / tlcheck / sat / profile.
    std::int64_t errors = 0;
    std::int64_t batched = 0;  // Served from a concurrent leader's result.
    std::int64_t cache_hits = 0;  // Served from a kept result-table entry.
  };
  const Stats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  Status Dispatch(const std::string& verb, const std::string& rest,
                  std::ostream& out);
  Status CmdFetch(std::ostream& out, const std::string& args);
  Status CmdSet(std::ostream& out, const std::string& args);
  Status CmdLoad(const std::string& path);
  Status CmdDefine(const std::string& text);

  Status CmdProfile(std::ostream& out, const std::string& text);

  /// A statement's query options: the full pipeline under the session's
  /// budgets, with its shared caches wired in.
  query::QueryOptions BaseOptions() const;

  /// Runs ask / query / tlcheck / sat on their prepared statement: one
  /// result-table Run whose computation evaluates it (read-only,
  /// deterministic) under the session's deadline, rendering output into
  /// `out`.
  Status CmdEval(std::string_view verb, query::Prepared& prepared,
                 std::ostream& out);

  SharedDatabase* db_;
  SessionOptions options_;
  std::string pending_;  // Partial multi-line statement.
  std::optional<GeneralizedRelation> cursor_;
  std::int64_t cursor_pos_ = 0;
  Stats stats_;
};

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_SESSION_H_
