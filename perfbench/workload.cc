#include "workload.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common.h"
#include "query/ast.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/sorts.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"
#include "storage/text_format.h"

namespace e2e {

namespace {

using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::GeneralizedTuple;

// The query files the service families come from.  Fixed, so a later
// corpus entry does not silently change the workload; each gets a short
// relation-name prefix because the files reuse names (Busy, U0, ...).
struct QueryFile {
  const char* path;
  const char* prefix;
};
constexpr QueryFile kQueryFiles[] = {
    {"examples/queries/maintenance_windows.itdb", "MW"},
    {"examples/queries/robot_tasks.itdb", "RT"},
    {"tests/fuzz/corpus/complement-demorgan.itdb", "CD"},
    {"tests/fuzz/corpus/empty-intersection.itdb", "EI"},
    {"tests/fuzz/corpus/join-difference-equality.itdb", "JD"},
    {"tests/fuzz/corpus/punctured-subtract.itdb", "PS"},
    {"tests/fuzz/corpus/residue-prefilter-negative-offsets.itdb", "RP"},
    {"tests/fuzz/corpus/shift-projection-window.itdb", "SP"},
};

constexpr const char* kPlannerChain = "Big(t) AND Wide(u) AND Link(t, u)";

// Theorem 4.1: the three query shapes of bench/bench_query_eval.cc, each
// restricted to a time window [a, b] so that no two statements repeat.
enum Thm41Template { kJoin = 0, kNeg = 1, kUniv = 2 };
constexpr const char* kThm41Names[] = {"join", "neg", "univ"};
constexpr int kBusyPeriod = 32;
constexpr int kJoinSizes[] = {8, 16, 32};
constexpr int kComplementSizes[] = {32, 64, 128};

constexpr int kConstantRanks = 32;      // Zipf support per service family.
constexpr double kZipfExponent = 1.1;
constexpr int kProbeVariants = 4;
constexpr int kWindowWidth = 600;
constexpr int kOwnVariants = 4;
constexpr int kPrivateRanks = 8;
constexpr int kSeedLogRounds = 300;
// 50 drop/define pairs a second: 100 writes/s, about a tenth of the
// statements at the measured service-rw throughput.
constexpr double kWritePairInterval = 0.02;
constexpr int kProbePairs = 2000;
constexpr int kProbeTuples = 40;
constexpr std::uint64_t kCheckpointEvery = 500;

bool IsKeyword(const std::string& w) {
  static const std::set<std::string> kKeywords = {
      "AND", "and", "OR", "or", "NOT", "not",
      "EXISTS", "exists", "FORALL", "forall"};
  return kKeywords.count(w) > 0;
}

// Rewrites every identifier of a query statement: `call` says whether the
// identifier names a relation (is followed by '(').  String literals and the
// leading verb pass through untouched.
template <typename Fn>
std::string RewriteIdents(const std::string& text, Fn fn) {
  std::string out;
  std::size_t i = 0;
  bool first_word = true;
  while (i < text.size()) {
    const char ch = text[i];
    if (ch == '"') {
      std::size_t end = text.find('"', i + 1);
      end = end == std::string::npos ? text.size() : end + 1;
      out.append(text, i, end - i);
      i = end;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_') {
      std::size_t end = i;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_')) {
        ++end;
      }
      std::string word = text.substr(i, end - i);
      std::size_t next = text.find_first_not_of(' ', end);
      const bool call = next != std::string::npos && text[next] == '(';
      out += first_word ? word : fn(word, call);
      first_word = false;
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      while (i < text.size() &&
             std::isalnum(static_cast<unsigned char>(text[i]))) {
        out += text[i++];
      }
      continue;
    }
    out += ch;
    ++i;
  }
  return out;
}

std::vector<std::string> SplitMarks(const std::string& s) {
  std::vector<std::string> parts(1);
  for (char ch : s) {
    if (ch == kVarMark) {
      parts.emplace_back();
    } else {
      parts.back() += ch;
    }
  }
  return parts;
}

// Statement text split before every variable occurrence.
std::vector<std::string> MarkVariables(const std::string& statement) {
  return SplitMarks(RewriteIdents(
      statement, [](const std::string& w, bool call) {
        if (call || IsKeyword(w)) return w;
        return std::string(1, kVarMark) + w;
      }));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Executes `statement` on a private cache-less session: the reference every
// server reply is compared with.
bool RunReference(Database* db, const std::string& statement,
                  std::string* out) {
  itdb::server::SharedDatabase shared(db);
  itdb::server::Session session(&shared);
  std::ostringstream text;
  itdb::Status status = session.Execute(statement, text);
  *out = text.str();
  return status.ok();
}

// The rendering of `query` results with every column name preceded by
// kVarMark: the expected reply of a fresh copy, split for JoinFresh.
std::string RenderMarked(const GeneralizedRelation& rel, bool mark) {
  const itdb::Schema& schema = rel.schema();
  const std::string m = mark ? std::string(1, kVarMark) : "";
  std::vector<std::string> temporal;
  std::vector<std::string> data;
  for (const std::string& n : schema.temporal_names()) temporal.push_back(m + n);
  for (const std::string& n : schema.data_names()) data.push_back(m + n);
  GeneralizedRelation renamed(
      itdb::Schema(temporal, data, schema.data_types()));
  for (const GeneralizedTuple& t : rel.tuples()) {
    if (!renamed.AddTuple(t).ok()) Die("cannot rename a result schema");
  }
  return itdb::PrintRelation("result", renamed) + std::to_string(rel.size()) +
         " generalized tuple(s)\n";
}

struct Builder {
  Workload* w;
  Rng rng;

  std::uint32_t Add(PoolEntry e) {
    w->pool.push_back(std::move(e));
    return static_cast<std::uint32_t>(w->pool.size() - 1);
  }

  std::uint32_t AddWrite(const std::string& statement, int family) {
    PoolEntry e;
    e.text = {statement};
    e.expected = {""};
    e.write = true;
    e.family = family;
    return Add(std::move(e));
  }

  // A read whose reply is computed in-process on `db`; for `query`
  // statements the expected reply of fresh copies is derived by renaming
  // the result's columns, and checked once per family against a real
  // fresh copy (`validate`).
  std::uint32_t AddRead(Database* db, const std::string& statement,
                        bool query, int family, bool validate) {
    std::string reply;
    if (!RunReference(db, statement, &reply)) {
      Die("reference failed for: " + statement + "\n" + reply);
    }
    PoolEntry e;
    e.text = MarkVariables(statement);
    e.query = query;
    e.family = family;
    if (query) {
      itdb::Result<GeneralizedRelation> rel =
          itdb::query::EvalQueryString(*db, statement.substr(6));
      if (!rel.ok() || RenderMarked(rel.value(), false) != reply) {
        Die("cannot derive fresh replies for: " + statement);
      }
      e.expected = SplitMarks(RenderMarked(rel.value(), true));
    } else {
      e.expected = {reply};
    }
    if (validate) {
      std::string fresh_reply;
      const std::string fresh = JoinFresh(e.text, 1);
      if (!RunReference(db, fresh, &fresh_reply) ||
          fresh_reply != JoinFresh(e.expected, 1)) {
        Die("a fresh copy changes the reply of: " + statement);
      }
    }
    return Add(std::move(e));
  }
};

Database ParseCatalog(const std::string& text) {
  itdb::Result<Database> db = Database::FromText(text);
  if (!db.ok()) Die("catalog does not parse: " + db.status().ToString());
  return std::move(db).value();
}

void CountCatalog(Workload* w, const Database& db) {
  w->relations = db.size();
  w->tuples = 0;
  for (const std::string& name : db.Names()) {
    w->tuples += db.Get(name).value().size();
  }
}

// ---------------------------------------------------------------- thm41 --

struct BusyRelation {
  std::vector<int> offsets;
  std::vector<int> workers;
};

int Mod(std::int64_t a, int m) { return static_cast<int>(((a % m) + m) % m); }

// Brute-force truth of the three templates on the window [a, b]: the
// relations repeat with period kBusyPeriod, and each tuple covers the
// instants offset .. offset + 2 of every period.
bool Oracle(const BusyRelation& busy, Thm41Template tmpl, std::int64_t a,
            std::int64_t b) {
  bool any_gap = false;
  bool any_pair = false;
  for (std::int64_t t = a; t <= b; ++t) {
    std::set<int> workers;
    for (std::size_t i = 0; i < busy.offsets.size(); ++i) {
      if (Mod(t - busy.offsets[i], kBusyPeriod) <= 2) {
        workers.insert(busy.workers[i]);
      }
    }
    if (workers.empty()) any_gap = true;
    if (workers.size() >= 2) any_pair = true;
  }
  switch (tmpl) {
    case kJoin:
      return any_pair;
    case kNeg:
      return any_gap;
    case kUniv:
      return !any_gap;
  }
  return false;
}

std::string Thm41Statement(Thm41Template tmpl, int n, std::int64_t a,
                           std::int64_t b) {
  const std::string rel = "Busy" + std::to_string(n);
  const std::string sa = std::to_string(a);
  const std::string sb = std::to_string(b);
  switch (tmpl) {
    case kJoin:
      return "ask EXISTS t . EXISTS s1 . EXISTS e1 . EXISTS s2 . EXISTS e2 . "
             "EXISTS w1 . EXISTS w2 . " +
             rel + "(s1, e1, w1) AND " + rel +
             "(s2, e2, w2) AND s1 <= t AND t <= e1 AND s2 <= t AND t <= e2 "
             "AND NOT w1 = w2 AND " +
             sa + " <= t AND t <= " + sb;
    case kNeg:
      return "ask EXISTS t . " + sa + " <= t AND t <= " + sb +
             " AND NOT (EXISTS s . EXISTS e . EXISTS w . " + rel +
             "(s, e, w) AND s <= t AND t <= e)";
    case kUniv:
      return "ask FORALL t . (t < " + sa + " OR " + sb +
             " < t OR (EXISTS s . EXISTS e . EXISTS w . " + rel +
             "(s, e, w) AND s <= t AND t <= e))";
  }
  return "";
}

void AddProbeWrites(Builder& b, int family) {
  Workload& w = *b.w;
  std::vector<std::uint32_t> defines;
  for (int v = 0; v < kProbeVariants; ++v) {
    // Every variant has the periods 10..20 in turn, so a define costs the
    // same whatever the seed; the seed draws the offsets.
    std::string body = "define relation Probe(T: time) {";
    for (int i = 0; i < kProbeTuples; ++i) {
      body += " [" + std::to_string(Uniform(b.rng, 0, 9)) + "+" +
              std::to_string(10 + i % 11) + "n];";
    }
    defines.push_back(b.AddWrite(body + " }", family));
  }
  const std::uint32_t drop = b.AddWrite("drop Probe", family);
  for (int i = 0; i < kProbePairs; ++i) {
    w.probe.push_back(Op{defines[static_cast<std::size_t>(i) % defines.size()],
                         0});
    w.probe.push_back(Op{drop, 0});
  }
}

void BuildThm41(Builder& b, int seconds) {
  Workload& w = *b.w;
  w.connections = kConnections;
  // About 5 s of the loop.
  w.rss_after = 1200;
  Database db;
  std::map<int, BusyRelation> busy;
  std::set<int> sizes(std::begin(kJoinSizes), std::end(kJoinSizes));
  sizes.insert(std::begin(kComplementSizes), std::end(kComplementSizes));
  for (int n : sizes) {
    BusyRelation& r = busy[n];
    // bench_query_eval's relation (offsets 7i mod 30, four workers) minus
    // offsets 12-14, which leaves instant 14 of every period uncovered so
    // the complement queries answer both ways.  A fixed shape keeps every
    // seed's evaluation cost the same; the seed shuffles the tuple order.
    std::vector<std::pair<int, int>> tuples;
    for (int j = 0; static_cast<int>(tuples.size()) < n; ++j) {
      const int offset = (j * 7) % 30;
      if (offset >= 12 && offset <= 14) continue;
      tuples.emplace_back(offset, j % 4);
    }
    std::shuffle(tuples.begin(), tuples.end(), b.rng);
    GeneralizedRelation rel(itdb::Schema({"S", "E"}, {"Who"},
                                         {itdb::DataType::kString}));
    for (const auto& [offset, worker] : tuples) {
      r.offsets.push_back(offset);
      r.workers.push_back(worker);
      GeneralizedTuple t({itdb::Lrp::Make(offset, kBusyPeriod),
                          itdb::Lrp::Make(offset + 2, kBusyPeriod)},
                         {itdb::Value("w" + std::to_string(worker))});
      t.mutable_constraints().AddDifferenceEquality(0, 1, -2);
      if (!rel.AddTuple(std::move(t)).ok()) Die("cannot build Busy");
    }
    db.Put("Busy" + std::to_string(n), std::move(rel));
  }
  w.catalog_text = db.ToText();
  db = ParseCatalog(w.catalog_text);
  CountCatalog(&w, db);
  for (const char* name : kThm41Names) w.families.push_back(name);
  const int write_family = static_cast<int>(w.families.size());
  w.families.push_back("probe");

  // Closed-loop throughput is a few hundred statements a second; the
  // stream is sized well past that and wraps if a fast build exhausts it.
  const int per_conn = std::max(2000, 600 * seconds);
  std::set<std::string> seen;
  for (int c = 0; c < w.connections; ++c) {
    std::vector<Op>& stream = w.streams.emplace_back();
    while (static_cast<int>(stream.size()) < per_conn) {
      const Thm41Template tmpl =
          static_cast<Thm41Template>(Uniform(b.rng, 0, 2));
      const int n = tmpl == kJoin
                        ? kJoinSizes[Uniform(b.rng, 0, 2)]
                        : kComplementSizes[Uniform(b.rng, 0, 2)];
      const std::int64_t a = Uniform(b.rng, 0, 100000);
      const std::int64_t hi = a + Uniform(b.rng, 0, 40);
      std::string text = Thm41Statement(tmpl, n, a, hi);
      if (!seen.insert(text).second) continue;
      PoolEntry e;
      e.text = {text};
      e.expected = {Oracle(busy[n], tmpl, a, hi) ? "true\n" : "false\n"};
      e.family = tmpl;
      e.size_n = n;
      stream.push_back(Op{b.Add(std::move(e)), 0});
    }
  }
  // The oracle is checked against the engine on a sample of every
  // (template, size) pair before it is trusted for the whole stream.
  std::map<std::pair<int, int>, int> checked;
  for (const PoolEntry& e : w.pool) {
    int& count = checked[{e.family, e.size_n}];
    if (count >= 3) continue;
    ++count;
    std::string reply;
    if (!RunReference(&db, e.text[0], &reply) || reply != e.expected[0]) {
      Die("Theorem 4.1 oracle disagrees with the engine on: " + e.text[0]);
    }
  }
  AddProbeWrites(b, write_family);
}

// -------------------------------------------------------------- service --

// `text` with every relation of `relations` renamed `<prefix>_<name>`.
// RewriteIdents leaves a statement's first word (its verb) alone, so a
// placeholder verb goes in front.
std::string FilePrefixed(const std::string& text,
                         const std::set<std::string>& relations,
                         const std::string& prefix) {
  return RewriteIdents("q " + text, [&](const std::string& w, bool call) {
           return call && relations.count(w) ? prefix + "_" + w : w;
         }).substr(2);
}

// A redefinition of `Own`.  Only the residues are seeded: the periods are
// fixed, so every variant joins with a relation of scattered points at the
// same density and no seed makes the reads of `Own` cheaper or dearer.
std::string OwnVariant(Rng& rng) {
  std::string body = "(T: time) {";
  for (int k : {4, 6, 8, 12}) {
    body += " [" + std::to_string(Uniform(rng, 0, k - 1)) + "+" +
            std::to_string(k) + "n];";
  }
  return body + " }";
}

struct Family {
  std::string query;      // Query text with catalog relation names.
  std::string var;        // Free temporal variable the constant bounds.
  std::vector<std::string> free;  // All free variables.
};

// Reads the `# check:` queries, keeping those that evaluate.
std::vector<Family> CheckFamilies(Database& db, const std::string& root,
                                  Workload* w, std::string* catalog) {
  std::vector<std::string> candidates;
  for (const QueryFile& file : kQueryFiles) {
    const std::string text = ReadFile(root + "/" + file.path);
    Database local = ParseCatalog(text);
    std::set<std::string> names;
    for (const std::string& name : local.Names()) {
      names.insert(name);
      const std::string renamed = std::string(file.prefix) + "_" + name;
      *catalog += itdb::PrintRelation(renamed, local.Get(name).value());
    }
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string tag = "# check:";
      if (line.rfind(tag, 0) != 0) continue;
      std::string q = line.substr(tag.size());
      q.erase(0, q.find_first_not_of(' '));
      candidates.push_back(FilePrefixed(q, names, file.prefix));
    }
  }
  candidates.push_back(kPlannerChain);

  db = ParseCatalog(*catalog);
  std::vector<Family> out;
  for (const std::string& q : candidates) {
    itdb::Result<itdb::query::QueryPtr> parsed = itdb::query::ParseQuery(q);
    itdb::Result<itdb::query::SortMap> sorts =
        parsed.ok() ? itdb::query::InferSorts(db, parsed.value())
                    : itdb::Result<itdb::query::SortMap>(parsed.status());
    std::string reply;
    if (!sorts.ok() || !RunReference(&db, "query " + q, &reply)) {
      std::string why = sorts.ok() ? reply : sorts.status().ToString();
      why = why.substr(0, why.find('\n'));
      w->excluded.push_back(q + " -- " + why);
      continue;
    }
    Family f;
    f.query = q;
    f.free = parsed.value()->FreeVariables();
    for (const std::string& v : f.free) {
      if (sorts.value().at(v) == itdb::query::Sort::kTime) {
        f.var = v;
        break;
      }
    }
    out.push_back(std::move(f));
  }
  return out;
}

std::string AskText(const Family& f, const std::string& body) {
  std::string text = "ask ";
  for (const std::string& v : f.free) text += "EXISTS " + v + " . ";
  return text + "(" + body + ")";
}

// The family's query restricted to a window of its first free temporal
// variable.  The window has a fixed width, so the constant changes which
// rows qualify but hardly how many.
std::string Bounded(const Family& f, std::int64_t c) {
  if (f.var.empty()) return f.query;
  return "(" + f.query + ") AND " + f.var + " >= " + std::to_string(c) +
         " AND " + f.var + " <= " + std::to_string(c + kWindowWidth);
}

void BuildService(Builder& b, int seconds, bool rw, const std::string& root) {
  Workload& w = *b.w;
  w.connections = kConnections;
  // Six reads in ten are fresh copies, so the result cache serves about a
  // quarter of the reads and read_p50_ms falls among the misses.  At 0.3
  // the cache served 42%, and the median sat in the gap between hits
  // (about 0.09 ms) and misses (about 0.35 ms), where it jumped from run
  // to run.
  w.fresh_share = 0.6;
  // About 5 s of the loop.
  w.rss_after = rw ? 9000 : 11000;
  // One writer per `Own`: its reads follow its writes only on the
  // connection that makes them.
  if (rw && w.connections != 1) Die("service-rw needs one connection");

  // Planner chain: two 150-tuple relations sharing no variable and a
  // selective bridge (bench/bench_planner.cc), with seeded contents.
  std::string catalog;
  {
    std::set<std::int64_t> big;
    std::set<std::int64_t> wide;
    while (big.size() < 150) big.insert(Uniform(b.rng, 0, 2999));
    while (wide.size() < 150) wide.insert(Uniform(b.rng, 0, 2999));
    catalog += "relation Big(T: time) {";
    for (std::int64_t v : big) catalog += " [" + std::to_string(v) + "];";
    catalog += " }\nrelation Wide(T: time) {";
    for (std::int64_t v : wide) catalog += " [" + std::to_string(v) + "];";
    catalog += " }\nrelation Link(A: time, B: time) {";
    auto bi = big.begin();
    auto wi = wide.begin();
    for (int i = 0; i < 4; ++i) {
      std::advance(bi, Uniform(b.rng, 1, 30));
      std::advance(wi, Uniform(b.rng, 1, 30));
      catalog += " [" + std::to_string(*bi) + ", " + std::to_string(*wi) + "];";
    }
    catalog += " [3001, 3002]; }\n";
  }
  Database db;
  std::vector<Family> families = CheckFamilies(db, root, &w, &catalog);
  if (families.empty() || families.back().query != kPlannerChain) {
    Die("the planner chain did not check out");
  }
  for (const Family& f : families) w.families.push_back(f.query);
  // Reads of `Own`, the relation the write schedule redefines.
  const std::vector<std::string> private_families = {
      "Own(t) AND MW_Service(t)", "Own(t) AND Big(t)"};
  std::vector<std::string> own;
  if (rw) {
    for (int v = 0; v < kOwnVariants; ++v) own.push_back(OwnVariant(b.rng));
    db.Put("Own", itdb::ParseRelation("relation Own" + own[0])
                      .value()
                      .relation);
    for (const std::string& f : private_families) w.families.push_back(f);
  }
  const int write_family = static_cast<int>(w.families.size());
  w.families.push_back(rw ? "drop/define Own" : "probe");
  w.catalog_text = db.ToText();
  CountCatalog(&w, db);

  // (family, rank, verb) -> entry.
  std::vector<std::uint32_t> entries;
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (int r = 0; r < kConstantRanks; ++r) {
      const std::string body =
          Bounded(families[f], Uniform(b.rng, -20, 2400));
      for (int verb = 0; verb < 2; ++verb) {
        const bool query = verb == 1;
        const std::string text =
            query ? "query " + body : AskText(families[f], body);
        entries.push_back(
            b.AddRead(&db, text, query, static_cast<int>(f), r == 0));
      }
    }
  }
  if (rw) {
    w.write_pair_interval_s = kWritePairInterval;
    w.drop_entry = b.AddWrite("drop Own", write_family);
    const int first_private = static_cast<int>(families.size());
    std::vector<std::int64_t> constants;
    for (int r = 0; r < kPrivateRanks; ++r) {
      constants.push_back(Uniform(b.rng, -20, 2400));
    }
    for (int v = 0; v < kOwnVariants; ++v) {
      w.define_entries.push_back(
          b.AddWrite("define relation Own" + own[static_cast<std::size_t>(v)],
                     write_family));
      Database variant = ParseCatalog(w.catalog_text);
      variant.Put("Own",
                  itdb::ParseRelation("relation Own" +
                                      own[static_cast<std::size_t>(v)])
                      .value()
                      .relation);
      for (std::size_t pf = 0; pf < private_families.size(); ++pf) {
        Family f;
        f.query = private_families[pf];
        f.var = "t";
        f.free = {"t"};
        for (int r = 0; r < kPrivateRanks; ++r) {
          const std::string body =
              Bounded(f, constants[static_cast<std::size_t>(r)]);
          for (int verb = 0; verb < 2; ++verb) {
            const bool query = verb == 1;
            w.private_entries.push_back(b.AddRead(
                &variant, query ? "query " + body : AskText(f, body), query,
                first_private + static_cast<int>(pf), v == 0 && r == 0));
          }
        }
      }
    }
    w.private_slots = static_cast<std::uint32_t>(private_families.size()) *
                      kPrivateRanks * 2;
    for (int i = 0, last = 0; i < 4096; ++i) {
      int next = static_cast<int>(Uniform(b.rng, 0, kOwnVariants - 2));
      if (next >= last) ++next;
      w.write_variants.push_back(next);
      last = next;
    }
    // Seeded log: every catalog relation defined, then rounds of
    // redefinitions that end with `Own` back at variant 0.
    for (const std::string& name : db.Names()) {
      w.seed_log.push_back("define " +
                           itdb::PrintRelation(name, db.Get(name).value()));
    }
    for (int r = 0; r < kSeedLogRounds; ++r) {
      const int v = r + 1 == kSeedLogRounds
                        ? 0
                        : static_cast<int>(Uniform(b.rng, 0, kOwnVariants - 1));
      w.seed_log.push_back("drop Own");
      w.seed_log.push_back("define relation Own" +
                           own[static_cast<std::size_t>(v)]);
    }
  } else {
    AddProbeWrites(b, write_family);
  }

  const Zipf zipf(kConstantRanks, kZipfExponent);
  const Zipf private_zipf(kPrivateRanks, kZipfExponent);
  const int shared_families = static_cast<int>(families.size());
  const int read_families =
      shared_families + (rw ? static_cast<int>(private_families.size()) : 0);
  const int per_conn = std::max(20000, 10000 * seconds);
  std::uint32_t fresh_counter = 0;
  for (int c = 0; c < w.connections; ++c) {
    std::vector<Op>& stream = w.streams.emplace_back();
    while (static_cast<int>(stream.size()) < per_conn) {
      // The planner chain, the last shared family and the costliest, is
      // drawn twice as often as the others.  Its misses are then about a
      // tenth of the reads, and read_p95_ms falls among them; at one share
      // they were a twentieth and read_p95_ms sat on the edge between them
      // and the rest (p93 0.75 ms, p95 1.3 ms), where it jumped from run to
      // run.
      int f = static_cast<int>(Uniform(b.rng, 0, read_families));
      if (f == read_families) f = shared_families - 1;
      const int verb = static_cast<int>(Uniform(b.rng, 0, 1));
      const std::uint32_t entry =
          f < shared_families
              ? entries[static_cast<std::size_t>(
                    (f * kConstantRanks + zipf.Draw(b.rng)) * 2 + verb)]
              : kPrivateBit |
                    static_cast<std::uint32_t>(
                        ((f - shared_families) * kPrivateRanks +
                         private_zipf.Draw(b.rng)) *
                            2 +
                        verb);
      const bool fresh = Coin(b.rng, w.fresh_share);
      // Fresh ids are unique across connections: c + 1, c + 1 + C, ...
      const std::uint32_t id =
          fresh ? static_cast<std::uint32_t>(c) + 1 +
                      static_cast<std::uint32_t>(w.connections) *
                          fresh_counter++
                : 0;
      stream.push_back(Op{entry, id});
    }
  }
}

}  // namespace

Op StreamCursor::Next(double elapsed_s) {
  if (w_.write_pair_interval_s > 0) {
    if (mid_pair_) {
      mid_pair_ = false;
      variant_ = w_.write_variants[pairs_++ % w_.write_variants.size()];
      return Op{w_.define_entries[static_cast<std::size_t>(variant_)], 0};
    }
    if (elapsed_s >= static_cast<double>(pairs_) * w_.write_pair_interval_s) {
      mid_pair_ = true;
      return Op{w_.drop_entry, 0};
    }
  }
  if (next_ == stream_.size()) {
    next_ = 0;
    ++wraps_;
  }
  Op op = stream_[next_++];
  if ((op.entry & kPrivateBit) != 0) {
    op.entry = w_.private_entries[static_cast<std::size_t>(variant_) *
                                      w_.private_slots +
                                  (op.entry & ~kPrivateBit)];
  }
  return op;
}

std::string JoinFresh(const std::vector<std::string>& parts,
                      std::uint32_t fresh) {
  if (parts.size() == 1) return parts[0];
  const std::string prefix = "v" + std::to_string(fresh) + "_";
  std::string out = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (fresh != 0) out += prefix;
    out += parts[i];
  }
  return out;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds, const std::string& root) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.checkpoint_every = kCheckpointEvery;
  Builder b{&w, Rng(seed * 0x9E3779B97F4A7C15ULL + 1)};
  if (name == "thm41") {
    BuildThm41(b, seconds);
  } else if (name == "service") {
    BuildService(b, seconds, /*rw=*/false, root);
  } else if (name == "service-rw") {
    BuildService(b, seconds, /*rw=*/true, root);
  } else {
    Die("unknown workload \"" + name + "\" (thm41, service, service-rw)");
  }
  return w;
}

}  // namespace e2e
