#include "traced.h"

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/absint.h"
#include "analysis/analyzer.h"
#include "common.h"
#include "core/algebra.h"
#include "core/index.h"
#include "core/normalize_cache.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "query/eval.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/sorts.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/text_format.h"
#include "storage/wal/storage_engine.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;
using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::query::Query;
using itdb::query::QueryPtr;

// Stage samples, in microseconds, one per read statement.
struct Stages {
  std::vector<double> parse, analyze, optimize, sorts, absint, plan, eval,
      render, frame, session, unattributed;
  std::vector<double> qerror, cert_slack;
  double traced_total = 0;
  double session_total = 0;
  std::int64_t reads = 0;
  std::int64_t cert_bounded = 0;
  std::int64_t pairs_candidate = 0;
  std::int64_t pairs_pruned = 0;
  std::int64_t closures_full = 0;
  std::int64_t input_tuples = 0;
  // (family, size) -> eval samples, for the Theorem 4.1 shape check.
  std::map<std::pair<int, int>, std::vector<double>> eval_by_size;
};

struct Storage {
  std::vector<double> commit, checkpoint, stats;
  std::int64_t writes = 0;
  std::int64_t wal_bytes = 0;
};

double Since(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double us = MicrosBetween(t, now);
  t = now;
  return us;
}

std::int64_t WalAppendedBytes() {
  return itdb::obs::MetricsRegistry::Global()
      .GetCounter("storage.wal_appended_bytes")
      ->value();
}

// The result the evaluator short-circuits to for a root proven empty at
// the bit level (query/eval.cc): the query's schema, no tuples.
GeneralizedRelation EmptyResult(const Query& q,
                                const itdb::query::SortMap& sorts) {
  std::vector<std::string> temporal;
  std::vector<std::string> data;
  std::vector<itdb::DataType> types;
  for (const std::string& v : q.FreeVariables()) {
    auto it = sorts.find(v);
    if (it == sorts.end() || it->second == itdb::query::Sort::kTime) {
      temporal.push_back(v);
    } else {
      data.push_back(v);
      types.push_back(it->second == itdb::query::Sort::kDataInt
                          ? itdb::DataType::kInt
                          : itdb::DataType::kString);
    }
  }
  return GeneralizedRelation(itdb::Schema(temporal, data, types));
}

std::int64_t AtomInputTuples(const Database& db, const Query& q) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      itdb::Result<GeneralizedRelation> rel = db.Get(q.relation());
      return rel.ok() ? rel.value().size() : 0;
    }
    case Query::Kind::kCmp:
      return 0;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      return AtomInputTuples(db, *q.left()) + AtomInputTuples(db, *q.right());
    default:
      return AtomInputTuples(db, *q.left());
  }
}

// q-error of every planned AND node: the planner's row estimate against
// the size of that subtree evaluated alone.
void CollectQErrors(const Database& db, const QueryPtr& node,
                    const itdb::query::PlanEstimateMap& estimates,
                    const itdb::query::QueryOptions& opts,
                    std::vector<double>& out) {
  if (node->kind() == Query::Kind::kAtom || node->kind() == Query::Kind::kCmp) {
    return;
  }
  if (node->kind() == Query::Kind::kAnd) {
    auto it = estimates.find(node.get());
    if (it != estimates.end()) {
      itdb::Result<GeneralizedRelation> actual =
          itdb::query::EvalQuery(db, node, opts);
      if (actual.ok()) {
        const double est = std::max(1.0, it->second.rows);
        const double act =
            std::max(1.0, static_cast<double>(actual.value().size()));
        out.push_back(std::max(est / act, act / est));
      }
    }
  }
  if (node->left() != nullptr) {
    CollectQErrors(db, node->left(), estimates, opts, out);
  }
  if (node->right() != nullptr) {
    CollectQErrors(db, node->right(), estimates, opts, out);
  }
}

struct Replay {
  const Workload& w;
  Database& db;
  itdb::storage::StorageEngine& engine;
  itdb::NormalizeCache norm_cache;
  itdb::StatsCache stats_cache;
  // The untraced session keeps caches of its own, so each path sees the
  // same statement sequence with the same cache warmth.
  itdb::NormalizeCache session_norm_cache;
  itdb::StatsCache session_stats_cache;
  itdb::server::SharedDatabase shared;
  std::unique_ptr<itdb::server::Session> session;
  Stages st;
  Storage sto;
  std::vector<bool> qerror_done;
  double qerror_us = 0;
  double qerror_budget_us = 0;
  TracedResult* result;

  Replay(const Workload& w_, Database& db_,
         itdb::storage::StorageEngine& engine_, TracedResult* r)
      : w(w_), db(db_), engine(engine_), shared(&db_, db_.version()),
        qerror_done(w_.pool.size(), false), result(r) {
    itdb::server::SessionOptions options;
    options.normalize_cache = &session_norm_cache;
    options.stats_cache = &session_stats_cache;
    session = std::make_unique<itdb::server::Session>(&shared, options);
  }

  void Fail(const std::string& text, const std::string& got) {
    ++result->failed;
    if (result->notes.size() < 8) {
      result->notes.push_back("mismatch: " + text + " -> " + got);
    }
  }

  void Write(const Op& op) {
    const std::string& text = w.pool[op.entry].text[0];
    ++result->attempted;
    std::string name;
    std::optional<GeneralizedRelation> relation;
    if (text.rfind("drop ", 0) == 0) {
      name = text.substr(5);
    } else {
      itdb::Result<itdb::NamedRelation> parsed =
          itdb::ParseRelation(text.substr(7));
      if (!parsed.ok()) return Fail(text, parsed.status().ToString());
      name = parsed.value().name;
      relation = std::move(parsed.value().relation);
    }
    const std::uint64_t snapshot_before = engine.stats().snapshot_version;
    const std::int64_t wal_before = WalAppendedBytes();
    Clock::time_point t = Clock::now();
    const itdb::Status status =
        relation.has_value()
            ? engine.ApplyAdd(db, name, std::move(*relation))
            : engine.ApplyRemove(db, name);
    const double us = Since(t);
    if (!status.ok()) return Fail(text, status.ToString());
    ++sto.writes;
    sto.wal_bytes += WalAppendedBytes() - wal_before;
    (engine.stats().snapshot_version != snapshot_before ? sto.checkpoint
                                                        : sto.commit)
        .push_back(us);
    if (db.Has(name)) {
      GeneralizedRelation rel = db.Get(name).value();
      t = Clock::now();
      itdb::RelationStats stats = itdb::ComputeRelationStats(rel);
      sto.stats.push_back(Since(t));
      (void)stats;
    }
  }

  void Read(const Op& op) {
    const PoolEntry& e = w.pool[op.entry];
    const std::string text = JoinFresh(e.text, op.fresh);
    const std::string expected = JoinFresh(e.expected, op.fresh);
    ++result->attempted;
    const std::size_t space = text.find(' ');
    const std::string body = text.substr(space + 1);

    Clock::time_point t = Clock::now();
    itdb::Result<QueryPtr> parsed = itdb::query::ParseQuery(body);
    const double parse_us = Since(t);
    if (!parsed.ok()) return Fail(text, parsed.status().ToString());
    const QueryPtr& q = parsed.value();

    t = Clock::now();
    itdb::analysis::AnalysisResult ar = itdb::analysis::Analyze(db, q);
    const double analyze_us = Since(t);
    if (ar.HasErrors()) return Fail(text, "analysis errors");

    GeneralizedRelation rel;
    double optimize_us = 0, sorts_us = 0, absint_us = 0, plan_us = 0,
           eval_us = 0;
    std::optional<itdb::query::PlannedQuery> planned;
    itdb::KernelCounters counters;
    itdb::query::QueryOptions opts;
    opts.analyze = false;
    opts.optimize = false;
    opts.cost_plan = false;
    opts.algebra.normalize_cache = &norm_cache;
    opts.algebra.counters = &counters;
    if (ar.root_proven_bit_empty) {
      t = Clock::now();
      rel = EmptyResult(*q, ar.sorts);
      eval_us = Since(t);
    } else {
      t = Clock::now();
      QueryPtr target =
          itdb::query::Optimize(itdb::analysis::ApplySoundRewrites(q, ar));
      optimize_us = Since(t);
      itdb::Result<itdb::query::SortMap> sorts =
          itdb::query::InferSorts(db, target);
      sorts_us = Since(t);
      if (!sorts.ok()) return Fail(text, sorts.status().ToString());
      itdb::analysis::AbstractInterpreter interp(db, sorts.value(),
                                                 &stats_cache);
      interp.SeedActiveDomain(*q);
      interp.Interpret(target);
      absint_us = Since(t);
      planned = itdb::query::PlanQuery(db, target, sorts.value(),
                                       &stats_cache, &interp);
      plan_us = Since(t);
      itdb::Result<GeneralizedRelation> evaluated =
          itdb::query::EvalQuery(db, planned->query, opts);
      eval_us = Since(t);
      if (!evaluated.ok()) return Fail(text, evaluated.status().ToString());
      rel = std::move(evaluated).value();
    }
    std::string payload;
    t = Clock::now();
    if (e.query) {
      payload = itdb::PrintRelation("result", rel) +
                std::to_string(rel.size()) + " generalized tuple(s)\n";
    } else {
      itdb::Result<bool> empty = itdb::IsEmpty(rel, opts.algebra);
      if (!empty.ok()) return Fail(text, empty.status().ToString());
      payload = empty.value() ? "false\n" : "true\n";
    }
    const double render_us = Since(t);
    const std::string frame =
        itdb::server::EncodeResponse(itdb::server::ResponseStatus::kOk,
                                     payload);
    const double frame_us = Since(t);
    if (payload != expected) return Fail(text, payload);

    t = Clock::now();
    std::ostringstream session_out;
    const itdb::Status status = session->Execute(text, session_out);
    const double session_us = Since(t);
    if (!status.ok() || session_out.str() != expected) {
      return Fail(text, session_out.str());
    }

    const double total = parse_us + analyze_us + optimize_us + sorts_us +
                         absint_us + plan_us + eval_us + render_us + frame_us;
    st.parse.push_back(parse_us);
    st.analyze.push_back(analyze_us);
    st.optimize.push_back(optimize_us);
    st.sorts.push_back(sorts_us);
    st.absint.push_back(absint_us);
    st.plan.push_back(plan_us);
    st.eval.push_back(eval_us);
    st.render.push_back(render_us);
    st.frame.push_back(frame_us);
    st.session.push_back(session_us);
    st.unattributed.push_back(session_us - total);
    st.traced_total += total;
    st.session_total += session_us;
    ++st.reads;
    st.eval_by_size[{e.family, e.size_n}].push_back(eval_us);
    st.pairs_candidate += counters.pairs_candidate.load();
    st.pairs_pruned += counters.pairs_pruned_residue.load() +
                       counters.pairs_pruned_hull.load();
    st.closures_full += counters.closures_full.load();
    st.input_tuples += AtomInputTuples(db, *q);
    if (ar.root_certificate.rows.has_value()) {
      ++st.cert_bounded;
      st.cert_slack.push_back(std::log2(
          std::max<double>(1.0, static_cast<double>(*ar.root_certificate.rows)) /
          std::max<double>(1.0, static_cast<double>(rel.size()))));
    }
    // Estimate error, once per distinct statement and within a budget: it
    // evaluates every planned AND subtree a second time.
    if (planned.has_value() && !qerror_done[op.entry] &&
        qerror_us < qerror_budget_us) {
      qerror_done[op.entry] = true;
      t = Clock::now();
      itdb::query::QueryOptions plain = opts;
      plain.algebra.counters = nullptr;
      CollectQErrors(db, planned->query, planned->estimates, plain,
                     st.qerror);
      qerror_us += Since(t);
    }
  }
};

// Least-squares slope of log(y) against log(x).
double LogLogSlope(const std::vector<std::pair<double, double>>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : pts) {
    const double lx = std::log(x);
    const double ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double n = static_cast<double>(pts.size());
  const double den = n * sxx - sx * sx;
  return den == 0 ? 0.0 : (n * sxy - sx * sy) / den;
}

void ShapeCheck(const Workload& w, const Stages& st, TracedResult& r) {
  const char* names[] = {"join", "neg", "univ"};
  for (int tmpl = 0; tmpl < 3; ++tmpl) {
    std::vector<std::pair<double, double>> pts;
    if (w.name == "thm41") {
      for (const auto& [key, samples] : st.eval_by_size) {
        if (key.first == tmpl && samples.size() >= 3) {
          pts.emplace_back(key.second, std::max(1.0, Median(samples)));
        }
      }
    }
    const std::string metric =
        std::string("query.thm41_exponent_") + names[tmpl];
    if (pts.size() < 2) {
      r.metrics[metric] = 0;
      continue;
    }
    const double slope = LogLogSlope(pts);
    // A polynomial is a straight line in log-log space; an exponential
    // bends upward.  Flag a last-pair slope well above the first pair's.
    const double first = LogLogSlope({pts[0], pts[1]});
    const double last = LogLogSlope({pts[pts.size() - 2], pts.back()});
    r.metrics[metric] = slope;
    std::ostringstream note;
    note << "thm41 shape " << names[tmpl] << ": exponent " << slope
         << " (first pair " << first << ", last pair " << last << ") -> "
         << (last - first > 1.0 ? "NOT polynomial-looking" : "polynomial");
    r.notes.push_back(note.str());
  }
}

}  // namespace

void WriteSeedLog(const Workload& w, const std::string& dir) {
  fs::create_directories(dir);
  Database db;
  itdb::Result<std::unique_ptr<itdb::storage::StorageEngine>> engine =
      itdb::storage::StorageEngine::Open(dir, &db);
  if (!engine.ok()) Die("cannot open " + dir);
  itdb::server::SharedDatabase shared(&db);
  itdb::server::SessionOptions options;
  options.engine = engine.value().get();
  itdb::server::Session session(&shared, options);
  for (const std::string& statement : w.seed_log) {
    std::ostringstream out;
    if (!session.Execute(statement, out).ok()) {
      Die("seed log statement failed: " + out.str());
    }
  }
}

TracedResult RunTraced(const Workload& w, const std::string& data_dir,
                       const std::string& seed_dir, double seconds) {
  TracedResult result;
  std::vector<double> load_us;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t = Clock::now();
    itdb::Result<Database> loaded = Database::FromText(w.catalog_text);
    load_us.push_back(MicrosBetween(t, Clock::now()));
    if (!loaded.ok()) Die("catalog does not load");
  }

  // The data dir the server starts from: the seeded log, or what
  // itdb_serve's first boot leaves (the catalog as one WAL record per
  // relation).  Recovery replays it, three times from fresh copies; the
  // last one is the replay's catalog.
  itdb::storage::StorageEngineOptions options;
  options.auto_checkpoint_records = w.checkpoint_every;
  const std::string booted = w.seed_log.empty() ? data_dir + "/booted"
                                                : seed_dir;
  fs::create_directories(data_dir);
  if (w.seed_log.empty()) {
    fs::create_directories(booted);
    Database db;
    itdb::Result<std::unique_ptr<itdb::storage::StorageEngine>> engine =
        itdb::storage::StorageEngine::Open(booted, &db, options);
    if (!engine.ok()) Die("cannot open " + booted);
    const Database loaded = Database::FromText(w.catalog_text).value();
    for (const std::string& name : loaded.Names()) {
      if (!engine.value()->ApplyAdd(db, name, loaded.Get(name).value()).ok()) {
        Die("cannot seed the catalog");
      }
    }
  }
  std::vector<double> recovery_us;
  Database db;
  std::unique_ptr<itdb::storage::StorageEngine> engine;
  for (int i = 0; i < 3; ++i) {
    const std::string dir = data_dir + "/recover" + std::to_string(i);
    fs::copy(booted, dir, fs::copy_options::recursive);
    db = Database();
    const Clock::time_point t = Clock::now();
    itdb::Result<std::unique_ptr<itdb::storage::StorageEngine>> opened =
        itdb::storage::StorageEngine::Open(dir, &db, options);
    recovery_us.push_back(MicrosBetween(t, Clock::now()));
    if (!opened.ok()) Die("recovery failed: " + opened.status().ToString());
    engine = std::move(opened).value();
  }

  Replay replay(w, db, *engine, &result);
  replay.qerror_budget_us = seconds * 1e6 * 0.15;
  const Clock::time_point start = Clock::now();
  std::vector<StreamCursor> cursors;
  for (std::size_t c = 0; c < w.streams.size(); ++c) {
    cursors.emplace_back(w, static_cast<int>(c));
  }
  for (std::size_t c = 0;; c = (c + 1) % cursors.size()) {
    const double elapsed = SecondsSince(start);
    if (elapsed >= seconds && !cursors[c].mid_pair()) break;
    const Op op = cursors[c].Next(elapsed);
    if (w.pool[op.entry].write) {
      replay.Write(op);
    } else {
      replay.Read(op);
    }
  }
  for (const Op& op : w.probe) replay.Write(op);
  {
    const Clock::time_point t = Clock::now();
    if (!engine->Checkpoint().ok()) Die("checkpoint failed");
    replay.sto.checkpoint.push_back(MicrosBetween(t, Clock::now()));
  }

  const Stages& st = replay.st;
  const Storage& sto = replay.sto;
  auto& m = result.metrics;
  auto stage = [&](const std::string& name, const std::vector<double>& v) {
    m[name] = Median(v);
    m[name + "_p95"] = Quantile(v, 0.95);
  };
  stage("query.parse_us", st.parse);
  stage("analysis.analyze_us", st.analyze);
  stage("query.optimize_us", st.optimize);
  stage("query.sorts_us", st.sorts);
  stage("analysis.absint_us", st.absint);
  stage("query.plan_us", st.plan);
  stage("query.eval_us", st.eval);
  stage("server.session_us", st.session);
  m["server.render_us"] = Median(st.render);
  m["server.frame_us"] = Median(st.frame);
  m["server.unattributed_us"] = Median(st.unattributed);
  m["server.trace_overhead_share"] =
      SafeRatio(st.traced_total - st.session_total, st.session_total);
  m["query.est_qerror"] = st.qerror.empty() ? 1.0 : Median(st.qerror);
  m["query.est_qerror_p95"] =
      st.qerror.empty() ? 1.0 : Quantile(st.qerror, 0.95);
  m["analysis.cert_slack_log2"] =
      st.cert_slack.empty() ? 0.0 : Median(st.cert_slack);
  m["analysis.cert_bounded_share"] =
      SafeRatio(static_cast<double>(st.cert_bounded),
                static_cast<double>(st.reads));
  const itdb::NormalizeCache::Stats ns = replay.norm_cache.stats();
  m["core.normalize_cache_hit_rate"] =
      SafeRatio(static_cast<double>(ns.hits),
                static_cast<double>(ns.hits + ns.misses));
  m["core.pairs_candidate_per_tuple"] =
      SafeRatio(static_cast<double>(st.pairs_candidate),
                static_cast<double>(st.input_tuples));
  m["core.pruned_share"] = SafeRatio(static_cast<double>(st.pairs_pruned),
                                     static_cast<double>(st.pairs_candidate));
  m["core.closures_full_per_stmt"] =
      SafeRatio(static_cast<double>(st.closures_full),
                static_cast<double>(st.reads));
  m["core.stats_us"] = Median(sto.stats);
  m["storage.catalog_load_us"] = Median(load_us);
  m["storage.recovery_us"] = Median(recovery_us);
  m["storage.commit_us"] = Median(sto.commit);
  m["storage.wal_bytes_per_write"] =
      SafeRatio(static_cast<double>(sto.wal_bytes),
                static_cast<double>(sto.writes));
  m["storage.checkpoint_us"] = Median(sto.checkpoint);
  ShapeCheck(w, st, result);

  // The split the workloads were chosen for.
  const double front = m["analysis.analyze_us"] + m["analysis.absint_us"] +
                       m["query.parse_us"] + m["query.sorts_us"] +
                       m["query.plan_us"] + m["query.optimize_us"];
  std::ostringstream split;
  split << "layer split: front end " << front << " us, eval "
        << m["query.eval_us"] << " us, session " << m["server.session_us"]
        << " us over " << st.reads << " reads";
  result.notes.push_back(split.str());
  return result;
}

}  // namespace e2e
