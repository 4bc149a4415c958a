#include "server/session.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "core/coalesce.h"
#include "core/simplify.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/optimize.h"
#include "query/planner.h"
#include "query/prepared.h"
#include "storage/binary/binary_format.h"
#include "storage/text_format.h"
#include "storage/wal/storage_engine.h"
#include "tl/ltl.h"
#include "tl/parser.h"
#include "util/diagnostic.h"
#include "util/thread_pool.h"

namespace itdb {
namespace server {

namespace {

constexpr const char* kHelp = R"(commands:
  help                          this text
  load <path>                   parse relation blocks from a file
  define relation N(...) {...}  inline definition (may span lines)
  list                          relation names
  show <name>                   print a relation
  enumerate <name> <lo> <hi>    concrete rows with coordinates in [lo, hi]
  ask <query>                   yes/no first-order query
  query <query>                 open query; prints the result relation
  fetch [n]                     next n tuples of the last `query` result
  set [<name> <value>]          per-session options; bare `set` lists them
  explain <query>               print the (optimized) query-plan tree
  explain ask <query>           the plans `ask` runs on the peeled body, and
                                whether true means it is empty or nonempty
  explain tlcheck|sat <tl>      the plans of the formula's query
  profile [sat] <query|tl>      evaluate with tracing; prints per-plan-node
                                wall/CPU time, tuple counts, and kernel stats
  profile ask|tlcheck <...>     the yes/no pull loop per part (tuples pulled,
                                candidates tested, found) over the children
                                it materialized, then the answer
  metrics                       dump the process-global metrics registry
  stats [name]                  per-relation statistics (tuple counts,
                                distinct keys, period lcm, interval hull)
  check <query>                 static analysis only: sort errors, unsafe
                                variables, provably empty subqueries, cost
                                warnings -- with source-span diagnostics
  tlcheck <tl-formula>          does the temporal-logic formula hold at
                                every instant?  (e.g. G(req -> F[0,5](ack)))
  sat <tl-formula>              instants satisfying the formula
  coalesce <name>               merge residue families in place
  simplify <name>               drop empty and subsumed tuples in place
  witness <name>                print one concrete row, if any
  save <path>                   write the catalog to a file (.itdbb = binary)
  drop <name>                   remove a relation
  checkpoint                    write a snapshot and reset the WAL
                                (needs a durable session: --data-dir)
  as of <version> [name]        the catalog (or one relation) as it stood
                                after LSN <version> (durable sessions)
  history <name>                every recorded row of a relation with its
                                [sys_from, sys_to) system period
  quit | exit                   leave
)";

// First whitespace-delimited word; `rest` receives the remainder trimmed.
// Splits on spaces and tabs only, so a multi-line define statement keeps its
// continuation lines intact in `rest`.
std::string SplitCommand(const std::string& line, std::string* rest) {
  std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) {
    rest->clear();
    return "";
  }
  std::size_t end = line.find_first_of(" \t", start);
  std::string head = line.substr(start, end - start);
  if (end == std::string::npos) {
    rest->clear();
  } else {
    std::size_t rstart = line.find_first_not_of(" \t", end);
    *rest = rstart == std::string::npos ? "" : line.substr(rstart);
  }
  return head;
}

int BraceBalance(const std::string& s) {
  int open = 0;
  for (char c : s) {
    if (c == '{') ++open;
    if (c == '}') --open;
  }
  return open;
}

// Installs a cancellation deadline for the enclosed evaluation when
// `deadline_ms` is positive; otherwise a no-op.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(std::int64_t deadline_ms) {
    if (deadline_ms > 0) {
      token_.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
      scope_.emplace(&token_);
    }
  }

 private:
  CancellationToken token_;
  std::optional<CancellationScope> scope_;
};

// Rows a bare `fetch` returns.
constexpr std::int64_t kFetchBatch = 16;

// The result-table key: besides the catalog version, which the table takes
// apart, a reply is fixed by the verb, the statement and the budgets it runs
// under (Theorem 4.1).  The parsed tree is finer than any tree compiled from
// it, so two statements share a key only if they evaluate the same plans.
std::string StatementKey(std::string_view verb,
                         const query::Prepared& prepared,
                         std::int64_t deadline_ms) {
  const AlgebraOptions& algebra = prepared.options().algebra;
  std::ostringstream fp;
  fp << verb << '\x1f' << prepared.query()->ToString() << '\x1f'
     << algebra.max_tuples << '/' << algebra.max_split_product << '/'
     << deadline_ms;
  return fp.str();
}

bool IsBinaryPath(const std::string& path) {
  return path.size() >= 6 && path.ends_with(".itdbb");
}

Status CmdSave(const Database& db, const std::string& path) {
  if (IsBinaryPath(path)) return storage::SaveDatabaseFile(db, path);
  std::ofstream file(path);
  if (!file) return Status::InvalidArgument("cannot write \"" + path + "\"");
  file << db.ToText();
  return Status::Ok();
}

Status CmdShow(std::ostream& out, const Database& db,
               const std::string& name) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
  out << PrintRelation(name, rel);
  return Status::Ok();
}

Status CmdAsOf(std::ostream& out, const storage::StorageEngine& engine,
               const std::string& args) {
  std::istringstream in(args);
  std::int64_t version = 0;
  if (!(in >> version) || version < 0) {
    return Status::InvalidArgument("usage: as of <version> [name]");
  }
  std::string name;
  in >> name;
  ITDB_ASSIGN_OR_RETURN(Database db,
                        engine.AsOf(static_cast<std::uint64_t>(version)));
  if (!name.empty()) return CmdShow(out, db, name);
  out << db.ToText();
  out << db.size() << " relation(s) as of version " << version << "\n";
  return Status::Ok();
}

Status CmdHistory(std::ostream& out, const storage::StorageEngine& engine,
                  const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("usage: history <name>");
  ITDB_ASSIGN_OR_RETURN(std::vector<storage::HistoryEntry> entries,
                        engine.History(name));
  for (const storage::HistoryEntry& entry : entries) {
    out << "  [" << entry.sys_from << ", ";
    if (entry.sys_to == storage::kOpenVersion) {
      out << "now";
    } else {
      out << entry.sys_to;
    }
    out << ") " << entry.tuple.ToString() << "\n";
  }
  out << entries.size() << " row(s)\n";
  return Status::Ok();
}

// The lattice points Enumerate visits in [lo, hi], saturated at cap + 1:
// per tuple, the product over its columns of the lrp members in the window,
// plus those members (the column lists it builds), summed over the tuples.
std::int64_t WindowPoints(const GeneralizedRelation& rel, std::int64_t lo,
                          std::int64_t hi, std::int64_t cap) {
  const __int128 limit = static_cast<__int128>(cap) + 1;
  __int128 total = 0;
  for (const GeneralizedTuple& t : rel.tuples()) {
    __int128 points = 1;
    for (const Lrp& l : t.temporal()) {
      const std::optional<std::int64_t> first = l.FirstAtLeast(lo);
      __int128 members = 0;
      if (first.has_value() && *first <= hi) {
        members = l.period() == 0
                      ? 1
                      : (static_cast<__int128>(hi) - *first) / l.period() + 1;
      }
      members = std::min(members, limit);
      points = std::min(points * members, limit);
      total = std::min(total + members, limit);
    }
    total = std::min(total + points, limit);
  }
  return static_cast<std::int64_t>(total);
}

Status CmdEnumerate(std::ostream& out, const Database& db,
                    const std::string& args, std::int64_t max_tuples) {
  std::istringstream in(args);
  std::string name;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (!(in >> name >> lo >> hi)) {
    return Status::InvalidArgument("usage: enumerate <name> <lo> <hi>");
  }
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
  // Counted before anything is allocated: a wide window over a dense
  // relation would otherwise ask for unbounded memory.
  if (WindowPoints(rel, lo, hi, max_tuples) > max_tuples) {
    return Status::ResourceExhausted(
        "enumerate: the window holds more than " +
        std::to_string(max_tuples) + " candidate points");
  }
  std::vector<ConcreteRow> rows = rel.Enumerate(lo, hi);
  for (const ConcreteRow& row : rows) {
    out << "  " << row.ToString() << "\n";
  }
  out << rows.size() << " row(s)\n";
  return Status::Ok();
}

// Static analysis of a first-order query: rustc-style caret diagnostics,
// then a one-line summary.  Findings go to `out` as ordinary output; the
// command itself only fails on I/O-level problems, so scripted `check`
// runs (tools/check_queries.py) can assert on the printed codes.
Status CmdCheckQuery(std::ostream& out, const Database& db,
                     const query::QueryOptions& options,
                     const std::string& text) {
  Result<query::Prepared> prepared = query::Prepared::Parse(text, options);
  if (!prepared.ok()) {
    out << "error[parse]: " << prepared.status().message() << "\n";
    out << "check: 1 error(s), 0 warning(s)\n";
    return Status::Ok();
  }
  const analysis::AnalysisResult& result = prepared.value().Analyze(db);
  out << FormatDiagnostics(text, result.diagnostics);
  if (result.root_proven_empty) {
    out << "note: the query result is statically empty\n";
  }
  if (result.diagnostics.empty()) {
    out << "check: ok\n";
  } else {
    out << "check: " << result.errors() << " error(s), " << result.warnings()
        << " warning(s)\n";
  }
  return Status::Ok();
}

// Stage one of an evaluating verb.  `tlcheck` and `sat` state their
// formula's first-order definition at T (tl/ltl.h): FORALL T . phi(T)
// answered yes/no, and the relation of phi(T).
Result<query::Prepared> PrepareStatement(std::string_view verb,
                                         const std::string& text,
                                         const query::QueryOptions& options) {
  const bool yes_no = verb == "ask" || verb == "tlcheck";
  const query::Answer answer =
      yes_no ? query::Answer::kYesNo : query::Answer::kRelation;
  if (verb == "ask" || verb == "query") {
    return query::Prepared::Parse(text, options, answer);
  }
  ITDB_ASSIGN_OR_RETURN(tl::TlPtr formula, tl::ParseTlFormula(text));
  ITDB_ASSIGN_OR_RETURN(query::QueryPtr phi,
                        tl::ToQuery(*formula, query::Term::Variable("T")));
  return query::Prepared(yes_no ? query::Query::Forall("T", phi) : phi,
                         options, answer);
}

// `explain` and `profile` text: `<verb> <text>` for a verb of
// PrepareStatement, else a bare `query`.
std::pair<std::string, std::string> StatementVerb(const std::string& rest) {
  std::string text;
  std::string verb = SplitCommand(rest, &text);
  if (verb == "ask" || verb == "tlcheck" || verb == "sat") return {verb, text};
  return {"query", rest};
}

// Evaluates a prepared statement and renders its outcome as `verb` prints
// it; `query` also hands its relation to the fetch cursor.  A failing
// `tlcheck` prints its violations: the relation statement NOT phi(T),
// prepared with the same options.
Status EvalAndRender(std::string_view verb, const Database& db,
                     query::Prepared& prepared, std::ostream& out,
                     std::shared_ptr<const GeneralizedRelation>* relation) {
  if (verb == "ask") {
    ITDB_ASSIGN_OR_RETURN(bool truth,
                          query::EvalPreparedBoolean(db, prepared));
    out << (truth ? "true" : "false") << "\n";
    return Status::Ok();
  }
  if (verb == "query") {
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel,
                          query::EvalPrepared(db, prepared));
    *relation = std::make_shared<const GeneralizedRelation>(std::move(rel));
    out << PrintRelation("result", **relation);
    out << (*relation)->size() << " generalized tuple(s)\n";
    return Status::Ok();
  }
  ITDB_RETURN_IF_ERROR(tl::CheckPropositions(db, *prepared.query()));
  std::optional<query::Prepared> violations;
  if (verb == "tlcheck") {
    ITDB_ASSIGN_OR_RETURN(bool holds,
                          query::EvalPreparedBoolean(db, prepared));
    if (holds) {
      out << "PASS: holds at every instant\n";
      return Status::Ok();
    }
    // The statement is NOT EXISTS T . NOT phi(T); its violations are the
    // inner NOT phi(T).
    violations.emplace(prepared.query()->left()->left(), prepared.options());
  }
  ITDB_ASSIGN_OR_RETURN(
      GeneralizedRelation rel,
      query::EvalPrepared(db, violations ? *violations : prepared));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation packed, CoalesceResidues(rel));
  if (violations) {
    out << "FAIL: violated on\n" << PrintRelation("violations", packed);
  } else {
    out << PrintRelation("sat", packed);
    out << packed.size() << " generalized tuple(s)\n";
  }
  return Status::Ok();
}

// Replaces `name` with `relation`, through the durable engine when one is
// configured so the rewrite is WAL-logged and versioned.
Status PutRelation(Database& db, storage::StorageEngine* engine,
                   const std::string& name, GeneralizedRelation relation) {
  if (engine != nullptr) return engine->ApplyPut(db, name, std::move(relation));
  db.Put(name, std::move(relation));
  return Status::Ok();
}

Status CmdCoalesce(std::ostream& out, Database& db,
                   storage::StorageEngine* engine, const std::string& name) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
  std::int64_t before = rel.size();
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation packed, CoalesceResidues(rel));
  out << before << " -> " << packed.size() << " tuple(s)\n";
  return PutRelation(db, engine, name, std::move(packed));
}

Status CmdSimplify(std::ostream& out, Database& db,
                   storage::StorageEngine* engine, const std::string& name) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
  std::int64_t before = rel.size();
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation simplified, Simplify(rel));
  out << before << " -> " << simplified.size() << " tuple(s)\n";
  return PutRelation(db, engine, name, std::move(simplified));
}

Status CmdWitness(std::ostream& out, const Database& db,
                  const std::string& name) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
  ITDB_ASSIGN_OR_RETURN(std::optional<ConcreteRow> row, FindWitness(rel));
  if (row.has_value()) {
    out << row->ToString() << "\n";
  } else {
    out << "empty relation\n";
  }
  return Status::Ok();
}

// Renders the compiled statement: the plan printed is the plan `profile`
// and evaluation run (sound rewrites applied, optimized, planned), from the
// same Prepared, so explain can never drift from what executes.  For a
// yes/no statement those are the plans of the peeled body's parts,
// followed by the one line saying which emptiness of them answers true.
Status CmdExplain(std::ostream& out, const Database& db,
                  query::Prepared& prepared) {
  const analysis::AnalysisResult& analyzed = prepared.Analyze(db);
  const Status compiled = prepared.Compile(db);
  const bool has_plan = compiled.ok() && !prepared.statically_empty();
  // Without a plan, the optimized parsed tree stands in for it.
  const query::QueryPtr optimized =
      has_plan ? prepared.rewritten() : query::Optimize(prepared.query());
  out << "query:     " << prepared.query()->ToString() << "\n";
  out << "optimized: " << optimized->ToString() << "\n";
  // Analyzer findings in a STABLE severity order -- errors, then warnings,
  // then notes, pass order within each severity -- so scripts can pin the
  // first analysis line regardless of which pass found what.
  if (!analyzed.diagnostics.empty()) {
    std::vector<Diagnostic> ordered = analyzed.diagnostics;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     });
    out << "analysis:\n" << FormatDiagnosticList(ordered) << "\n";
  }
  out << "plan:\n";
  const bool yes_no = prepared.answer() == query::Answer::kYesNo;
  if (compiled.ok() && prepared.statically_empty()) {
    out << "EMPTY (the analysis proves the result empty; nothing is "
           "evaluated)\n";
    if (yes_no) out << "answer: false\n";
    return Status::Ok();
  }
  if (!has_plan) {
    // Compilation failed (analysis errors, sort conflicts, free variables
    // of a yes/no statement): evaluation will report why; the unplanned
    // tree is still worth printing.
    out << query::FormatQueryPlanWithEstimates(optimized, {});
    return Status::Ok();
  }
  const std::vector<query::QueryPtr>& plans = prepared.plans();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans.size() > 1) {
      out << "part " << i + 1 << " of " << plans.size() << ":\n";
    }
    // The PLANNED tree with the estimates that ordered it and the
    // certificates that clamped them.
    out << query::FormatQueryPlanWithEstimates(
        plans[i], prepared.estimates(), &prepared.certificates());
  }
  if (!yes_no) return Status::Ok();
  // The parts share no variable: the body is empty iff some part is.
  const bool empty = prepared.holds_when_empty();
  if (plans.size() == 1) {
    out << "answer: true iff the plan's relation is "
        << (empty ? "empty" : "nonempty") << "\n";
  } else {
    out << "answer: true iff " << (empty ? "some" : "every")
        << " part's relation is " << (empty ? "empty" : "nonempty") << "\n";
  }
  return Status::Ok();
}

Status CmdStats(std::ostream& out, const Database& db, const std::string& args,
                StatsCache* cache) {
  std::vector<std::string> names;
  if (!args.empty()) {
    std::istringstream in(args);
    std::string name;
    while (in >> name) names.push_back(name);
  } else {
    names = db.Names();
  }
  for (const std::string& name : names) {
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(name));
    RelationStats stats = cache != nullptr
                              ? cache->Get(name, db.version(), rel)
                              : ComputeRelationStats(rel);
    out << FormatRelationStats(name, stats);
  }
  return Status::Ok();
}

void CmdMetrics(std::ostream& out) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::PublishThreadPoolMetrics(registry);
  out << registry.snapshot().ToText();
}

}  // namespace

Session::Session(SharedDatabase* db, SessionOptions options)
    : db_(db), options_(std::move(options)) {
  obs::AddGlobalCounter("server.sessions_opened", 1);
  obs::AddGlobalCounter("server.sessions_active", 1);
}

Session::~Session() {
  obs::AddGlobalCounter("server.sessions_active", -1);
}

bool Session::IsQuitStatement(std::string_view statement) {
  std::string rest;
  std::string verb = SplitCommand(std::string(statement), &rest);
  return verb == "quit" || verb == "exit";
}

std::optional<std::string> Session::AppendLine(std::string_view line) {
  if (pending_.empty()) {
    std::string text(line);
    std::size_t hash = text.find('#');
    if (hash != std::string::npos) text.erase(hash);
    std::string rest;
    std::string verb = SplitCommand(text, &rest);
    // Only `define` statements continue across lines; for everything else a
    // stray brace is the statement's own problem.
    if (verb == "define" && BraceBalance(text) > 0) {
      pending_ = text;
      return std::nullopt;
    }
    return text;
  }
  // Continuation lines feed the relation parser verbatim -- no comment
  // stripping, matching the classic shell's CompleteBlock behavior.
  pending_ += "\n";
  pending_ += std::string(line);
  if (BraceBalance(pending_) > 0) return std::nullopt;
  std::string statement = std::move(pending_);
  pending_.clear();
  return statement;
}

bool Session::AbortPending() {
  if (pending_.empty()) return false;
  pending_.clear();
  return true;
}

Session::FeedResult Session::Feed(std::string_view line, std::ostream& out) {
  FeedResult result;
  std::optional<std::string> statement = AppendLine(line);
  if (!statement.has_value()) {
    result.disposition = FeedResult::Disposition::kNeedMore;
    return result;
  }
  if (IsQuitStatement(*statement)) {
    result.disposition = FeedResult::Disposition::kQuit;
    return result;
  }
  result.status = Execute(*statement, out);
  return result;
}

Status Session::Execute(std::string_view statement, std::ostream& out) {
  std::string line(statement);
  std::string rest;
  std::string verb = SplitCommand(line, &rest);
  if (verb.empty() || verb == "quit" || verb == "exit") return Status::Ok();
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  ++stats_.commands;
  obs::AddGlobalCounter("server.commands", 1);
  obs::Span span = obs::Span::Begin(obs::GlobalTracer(), verb, "server");
  Status status = Dispatch(verb, rest, out);
  span.AddArg("ok", status.ok() ? 1 : 0);
  span.End();
  obs::MetricsRegistry::Global()
      .GetHistogram("server.command_ns")
      ->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  if (!status.ok()) {
    ++stats_.errors;
    obs::AddGlobalCounter("server.errors", 1);
    out << "error: " << status << "\n";
  }
  return status;
}

Status Session::Dispatch(const std::string& verb, const std::string& rest,
                         std::ostream& out) {
  if (options_.read_only &&
      (verb == "define" || verb == "load" || verb == "save" ||
       verb == "drop" || verb == "coalesce" || verb == "simplify" ||
       verb == "checkpoint")) {
    return Status::InvalidArgument("read-only session: \"" + verb +
                                   "\" is disabled");
  }
  if (verb == "help") {
    out << kHelp;
    return Status::Ok();
  }
  if (verb == "load") return CmdLoad(rest);
  if (verb == "save") {
    return db_->WithRead(
        [&](const Database& db) { return CmdSave(db, rest); });
  }
  if (verb == "list") {
    db_->WithRead([&](const Database& db) {
      for (const std::string& name : db.Names()) out << name << "\n";
      return 0;
    });
    return Status::Ok();
  }
  if (verb == "show") {
    return db_->WithRead(
        [&](const Database& db) { return CmdShow(out, db, rest); });
  }
  if (verb == "enumerate") {
    return db_->WithRead(
        [&](const Database& db) {
          return CmdEnumerate(out, db, rest, options_.max_tuples);
        });
  }
  if (verb == "ask" || verb == "query" || verb == "tlcheck" ||
      verb == "sat") {
    ++stats_.queries;
    obs::AddGlobalCounter("server.queries", 1);
    // Stage one: the statement's only parse.
    ITDB_ASSIGN_OR_RETURN(query::Prepared prepared,
                          PrepareStatement(verb, rest, BaseOptions()));
    return CmdEval(verb, prepared, out);
  }
  if (verb == "fetch") return CmdFetch(out, rest);
  if (verb == "set") return CmdSet(out, rest);
  if (verb == "explain" || verb == "EXPLAIN") {
    // Compiled exactly as its verb compiles it (`ask`: the peeled body).
    const auto [inner, text] = StatementVerb(rest);
    ITDB_ASSIGN_OR_RETURN(query::Prepared prepared,
                          PrepareStatement(inner, text, BaseOptions()));
    return db_->WithRead(
        [&](const Database& db) { return CmdExplain(out, db, prepared); });
  }
  if (verb == "stats") {
    return db_->WithRead([&](const Database& db) {
      return CmdStats(out, db, rest, options_.stats_cache);
    });
  }
  if (verb == "profile" || verb == "PROFILE") return CmdProfile(out, rest);
  if (verb == "metrics") {
    CmdMetrics(out);
    return Status::Ok();
  }
  if (verb == "check") {
    return db_->WithRead([&](const Database& db) {
      return CmdCheckQuery(out, db, BaseOptions(), rest);
    });
  }
  if (verb == "coalesce") {
    return db_->WithWrite([&](Database& db) {
      return CmdCoalesce(out, db, options_.engine, rest);
    });
  }
  if (verb == "simplify") {
    return db_->WithWrite([&](Database& db) {
      return CmdSimplify(out, db, options_.engine, rest);
    });
  }
  if (verb == "witness") {
    return db_->WithRead(
        [&](const Database& db) { return CmdWitness(out, db, rest); });
  }
  if (verb == "drop") {
    return db_->WithWrite([&](Database& db) {
      if (options_.engine != nullptr) {
        return options_.engine->ApplyRemove(db, rest);
      }
      return db.Remove(rest);
    });
  }
  if (verb == "define") return CmdDefine(rest);
  if (verb == "checkpoint") {
    if (options_.engine == nullptr) {
      return Status::InvalidArgument(
          "no durable storage (start with --data-dir)");
    }
    // Under the writer lock: the snapshot must capture a quiescent state.
    return db_->WithWrite(
        [&](Database&) { return options_.engine->Checkpoint(); });
  }
  // `as of <version> [name]` arrives as verb "as", rest "of ..."; accept a
  // fused "asof" spelling too.
  if (verb == "as" || verb == "asof") {
    std::string args = rest;
    if (verb == "as") {
      std::string tail;
      if (SplitCommand(rest, &tail) != "of") {
        return Status::InvalidArgument("usage: as of <version> [name]");
      }
      args = tail;
    }
    if (options_.engine == nullptr) {
      return Status::InvalidArgument(
          "no durable storage (start with --data-dir)");
    }
    return db_->WithRead([&](const Database&) {
      return CmdAsOf(out, *options_.engine, args);
    });
  }
  if (verb == "history") {
    if (options_.engine == nullptr) {
      return Status::InvalidArgument(
          "no durable storage (start with --data-dir)");
    }
    return db_->WithRead([&](const Database&) {
      return CmdHistory(out, *options_.engine, rest);
    });
  }
  return Status::InvalidArgument("unknown command \"" + verb +
                                 "\" (try: help)");
}

Status Session::CmdLoad(const std::string& path) {
  Database loaded;
  if (IsBinaryPath(path)) {
    ITDB_ASSIGN_OR_RETURN(loaded, storage::LoadDatabaseFile(path));
  } else {
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open \"" + path + "\"");
    std::stringstream buffer;
    buffer << file.rdbuf();
    ITDB_ASSIGN_OR_RETURN(loaded, Database::FromText(buffer.str()));
  }
  return db_->WithWrite([&](Database& db) -> Status {
    // Validate before committing so a name clash leaves the catalog exactly
    // as it was (the classic shell stopped mid-file, keeping a prefix).
    for (const std::string& name : loaded.Names()) {
      if (db.Has(name)) {
        return Status::InvalidArgument("relation \"" + name +
                                       "\" already exists");
      }
    }
    for (const std::string& name : loaded.Names()) {
      if (options_.engine != nullptr) {
        ITDB_RETURN_IF_ERROR(
            options_.engine->ApplyAdd(db, name, loaded.Get(name).value()));
      } else {
        ITDB_RETURN_IF_ERROR(db.Add(name, loaded.Get(name).value()));
      }
    }
    return Status::Ok();
  });
}

Status Session::CmdDefine(const std::string& text) {
  if (BraceBalance(text) != 0) {
    return Status::ParseError("unbalanced braces in definition");
  }
  ITDB_ASSIGN_OR_RETURN(NamedRelation named, ParseRelation(text));
  return db_->WithWrite([&](Database& db) {
    if (options_.engine != nullptr) {
      return options_.engine->ApplyAdd(db, named.name,
                                       std::move(named.relation));
    }
    return db.Add(named.name, std::move(named.relation));
  });
}

Status Session::CmdFetch(std::ostream& out, const std::string& args) {
  if (!cursor_.has_value()) {
    return Status::InvalidArgument(
        "no query result to fetch from (run `query` first)");
  }
  std::int64_t n = kFetchBatch;
  if (!args.empty()) {
    std::istringstream in(args);
    if (!(in >> n) || n <= 0) {
      return Status::InvalidArgument("usage: fetch [n]");
    }
  }
  GeneralizedRelation page(cursor_->schema());
  const std::vector<GeneralizedTuple>& tuples = cursor_->tuples();
  // Clamped before the add, so a huge n cannot overflow the position.
  const std::int64_t end =
      cursor_pos_ + std::min<std::int64_t>(
                        n, static_cast<std::int64_t>(cursor_->size()) -
                               cursor_pos_);
  for (std::int64_t i = cursor_pos_; i < end; ++i) {
    ITDB_RETURN_IF_ERROR(page.AddTuple(tuples[static_cast<std::size_t>(i)]));
  }
  cursor_pos_ = end;
  out << PrintRelation("fetch", page);
  out << page.size() << " tuple(s), " << (cursor_->size() - cursor_pos_)
      << " remaining\n";
  return Status::Ok();
}

Status Session::CmdSet(std::ostream& out, const std::string& args) {
  if (args.empty()) {
    out << "deadline_ms  " << options_.deadline_ms << "\n";
    return Status::Ok();
  }
  std::istringstream in(args);
  std::string name;
  std::string value;
  if (!(in >> name >> value)) {
    return Status::InvalidArgument("usage: set <name> <value>");
  }
  if (name != "deadline_ms") {
    return Status::InvalidArgument("unknown option \"" + name +
                                   "\" (set alone lists them)");
  }
  std::istringstream vin(value);
  std::int64_t ms = 0;
  if (!(vin >> ms) || ms < 0) {
    return Status::InvalidArgument("bad value \"" + value + "\" for " + name);
  }
  options_.deadline_ms = ms;
  return Status::Ok();
}

query::QueryOptions Session::BaseOptions() const {
  query::QueryOptions opts;
  opts.algebra.max_tuples = options_.max_tuples;
  opts.algebra.normalize_cache = options_.normalize_cache;
  opts.stats_cache = options_.stats_cache;
  return opts;
}

Status Session::CmdProfile(std::ostream& out, const std::string& text) {
  ++stats_.queries;
  obs::AddGlobalCounter("server.queries", 1);
  const auto [verb, body] = StatementVerb(text);
  const bool temporal_logic = verb == "sat" || verb == "tlcheck";
  ITDB_ASSIGN_OR_RETURN(query::Prepared prepared,
                        PrepareStatement(verb, body, BaseOptions()));
  return db_->WithRead([&](const Database& db) -> Status {
    if (temporal_logic) {
      ITDB_RETURN_IF_ERROR(tl::CheckPropositions(db, *prepared.query()));
    }
    DeadlineGuard deadline(options_.deadline_ms);
    obs::Profile profile;
    if (prepared.answer() == query::Answer::kYesNo) {
      // The pull loop's span per part, over the children it materialized.
      ITDB_ASSIGN_OR_RETURN(
          bool truth,
          query::EvalPreparedBoolean(db, prepared, &profile));
      out << profile.ToText();
      out << "answer: " << (truth ? "true" : "false") << "\n";
      return Status::Ok();
    }
    ITDB_ASSIGN_OR_RETURN(
        GeneralizedRelation relation,
        query::EvalPrepared(db, prepared, &profile));
    out << profile.ToText();
    out << relation.size() << " generalized tuple(s)\n";
    return Status::Ok();
  });
}

Status Session::CmdEval(std::string_view verb, query::Prepared& prepared,
                        std::ostream& out) {
  return db_->WithRead([&](const Database& db) -> Status {
    // Only the leader (or a session without a table) runs this: followers
    // and hits never analyze.
    auto compute = [&]() -> ResultCache::Outcome {
      ResultCache::Outcome o;
      std::ostringstream rendered;
      DeadlineGuard deadline(options_.deadline_ms);
      o.status = EvalAndRender(verb, db, prepared, rendered, &o.relation);
      if (!o.status.ok()) return o;
      o.text = rendered.str();
      // Certified cacheability: only results whose size the analysis can
      // BOUND are kept.  An unbounded-certificate result may be arbitrarily
      // large relative to its query, so keeping it could displace any
      // number of certified-small entries.  Analyze returns the analysis
      // the compile ran.
      o.cacheable = prepared.Analyze(db).root_certificate.bounded();
      if (!o.cacheable && options_.result_cache != nullptr) {
        obs::AddGlobalCounter("server.cache_refused_unbounded", 1);
      }
      return o;
    };
    ResultCache::Outcome outcome;
    if (options_.result_cache == nullptr) {
      outcome = compute();
    } else {
      // The version is read under the reader lock the evaluation holds, so
      // it is exactly the version the evaluation observes.
      ResultCache::Served served = ResultCache::Served::kComputed;
      outcome = options_.result_cache->Run(
          StatementKey(verb, prepared, options_.deadline_ms), db_->version(),
          compute, &served);
      if (served == ResultCache::Served::kHit) ++stats_.cache_hits;
      if (served == ResultCache::Served::kShared) ++stats_.batched;
    }
    ITDB_RETURN_IF_ERROR(outcome.status);
    out << outcome.text;
    if (outcome.relation != nullptr) {
      cursor_ = *outcome.relation;
      cursor_pos_ = 0;
    }
    return Status::Ok();
  });
}

}  // namespace server
}  // namespace itdb
