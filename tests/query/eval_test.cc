#include "query/eval.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/index.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "storage/text_format.h"
#include "util/thread_pool.h"

#ifndef ITDB_FUZZ_CORPUS_DIR
#error "ITDB_FUZZ_CORPUS_DIR must be defined by the build"
#endif
#ifndef ITDB_EXAMPLES_QUERIES_DIR
#error "ITDB_EXAMPLES_QUERIES_DIR must be defined by the build"
#endif

namespace itdb {
namespace query {
namespace {

Database SmallDb() {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n] : T >= 3; }     # {3, 13, 23, ...}
    relation Q(T: time) { [10n]; }                # multiples of 10
    relation Less(A: time, B: time) { [n, n] : A <= B - 1; }
    relation Who(T: time, W: string) { [2n | "alice"]; [1+2n | "bob"]; }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

Result<bool> Ask(const Database& db, const std::string& text) {
  return EvalBooleanQueryString(db, text);
}

std::set<std::int64_t> OpenUnary(const Database& db, const std::string& text,
                                 std::int64_t lo, std::int64_t hi) {
  Result<GeneralizedRelation> r = EvalQueryString(db, text);
  EXPECT_TRUE(r.ok()) << r.status() << " for " << text;
  std::set<std::int64_t> out;
  if (!r.ok()) return out;
  EXPECT_EQ(r.value().schema().temporal_arity(), 1);
  for (const ConcreteRow& row : r.value().Enumerate(lo, hi)) {
    out.insert(row.temporal[0]);
  }
  return out;
}

TEST(EvalTest, YesNoPullRecordsIntoTheStatementTracer) {
  Database db = SmallDb();
  obs::Tracer tracer;
  QueryOptions options;
  options.algebra.tracer = &tracer;
  Result<bool> truth = EvalBooleanQueryString(db, "EXISTS t . P(t)", options);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TRUE(*truth);
  std::vector<obs::SpanRecord> records = tracer.records();
  auto pull = std::find_if(
      records.begin(), records.end(),
      [](const obs::SpanRecord& r) { return r.name == "pull P(t)"; });
  ASSERT_NE(pull, records.end());
  EXPECT_EQ(pull->category, "plan");
  const std::vector<std::pair<std::string, std::int64_t>> found = {
      {"outer_pulled", 1}, {"candidates_tested", 1}, {"found", 1}};
  for (const auto& arg : found) {
    EXPECT_NE(std::find(pull->args.begin(), pull->args.end(), arg),
              pull->args.end())
        << arg.first;
  }
}

TEST(EvalTest, ExistentialAtom) {
  Database db = SmallDb();
  EXPECT_TRUE(Ask(db, "EXISTS t . P(t)").value());
  EXPECT_TRUE(Ask(db, "EXISTS t . Q(t)").value());
  // P lives on 3+10n, Q on 10n: disjoint residues.
  EXPECT_FALSE(Ask(db, "EXISTS t . P(t) AND Q(t)").value());
}

TEST(EvalTest, ConstantArguments) {
  Database db = SmallDb();
  EXPECT_TRUE(Ask(db, "P(13)").value());
  EXPECT_FALSE(Ask(db, "P(14)").value());
  EXPECT_FALSE(Ask(db, "P(-7)").value());  // On the lrp but below the bound.
  EXPECT_TRUE(Ask(db, "Q(-20)").value());
  EXPECT_TRUE(Ask(db, "Who(4, \"alice\")").value());
  EXPECT_FALSE(Ask(db, "Who(4, \"bob\")").value());
}

TEST(EvalTest, OpenAtomQuery) {
  Database db = SmallDb();
  std::set<std::int64_t> expect;
  for (std::int64_t x = 3; x <= 60; x += 10) expect.insert(x);
  EXPECT_EQ(OpenUnary(SmallDb(), "P(t)", -60, 60), expect);
}

TEST(EvalTest, SuccessorOffsetsShiftColumns) {
  // P(t + 7) holds iff t + 7 in {3 + 10n, >= 3}, i.e. t in {-4 + 10n, >= -4}.
  std::set<std::int64_t> expect;
  for (std::int64_t x = -4; x <= 60; x += 10) expect.insert(x);
  EXPECT_EQ(OpenUnary(SmallDb(), "P(t + 7)", -60, 60), expect);
}

TEST(EvalTest, RepeatedVariablesInAtom) {
  Database db = SmallDb();
  // Less(t, t) is always false (strict order).
  EXPECT_FALSE(Ask(db, "EXISTS t . Less(t, t)").value());
  EXPECT_TRUE(Ask(db, "EXISTS t . Less(t, t + 1)").value());
}

TEST(EvalTest, NegationOverZ) {
  Database db = SmallDb();
  EXPECT_TRUE(Ask(db, "EXISTS t . NOT Q(t)").value());
  std::set<std::int64_t> expect = {1, 2, 3, 4};
  EXPECT_EQ(OpenUnary(db, "NOT Q(t) AND 0 <= t AND t <= 4", -10, 10), expect);
}

TEST(EvalTest, UniversalTemporalQuantification) {
  Database db = SmallDb();
  // Every point is covered by alice (even) or bob (odd).
  EXPECT_TRUE(Ask(db, "FORALL t . EXISTS w . Who(t, w)").value());
  EXPECT_TRUE(
      Ask(db, "FORALL t . Who(t, \"alice\") OR Who(t, \"bob\")").value());
  EXPECT_FALSE(Ask(db, "FORALL t . Who(t, \"alice\")").value());
  // Every multiple of 10 shifted by 3 is in P -- but only from 0 upward.
  EXPECT_FALSE(Ask(db, "FORALL t . Q(t) -> P(t + 3)").value());
  EXPECT_TRUE(
      Ask(db, "FORALL t . (Q(t) AND t >= 0) -> P(t + 3)").value());
}

TEST(EvalTest, DataQuantification) {
  Database db = SmallDb();
  // No single w covers all t.
  EXPECT_FALSE(Ask(db, "EXISTS w . FORALL t . Who(t, w)").value());
  // alice and bob are distinct workers at distinct instants.
  EXPECT_TRUE(Ask(db,
                  "EXISTS w . EXISTS v . Who(2, w) AND Who(3, v) AND "
                  "NOT w = v")
                  .value());
  EXPECT_TRUE(Ask(db, "EXISTS w . Who(2, w) AND w = \"alice\"").value());
  EXPECT_FALSE(Ask(db, "EXISTS w . Who(2, w) AND w != \"alice\"").value());
}

TEST(EvalTest, OpenDataQuery) {
  Database db = SmallDb();
  Result<GeneralizedRelation> r = EvalQueryString(db, "Who(4, w)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().schema().data_names(), std::vector<std::string>{"w"});
  ASSERT_EQ(r.value().size(), 1);
  EXPECT_EQ(r.value().tuples()[0].value(0).AsString(), "alice");
}

TEST(EvalTest, MixedOpenQuery) {
  Database db = SmallDb();
  // Pairs (t, w): worker w active at both t and t + 2.
  Result<GeneralizedRelation> r =
      EvalQueryString(db, "Who(t, w) AND Who(t + 2, w)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().schema().temporal_names(),
            std::vector<std::string>{"t"});
  EXPECT_EQ(r.value().schema().data_names(), std::vector<std::string>{"w"});
  // Everyone keeps their parity: all (even, alice) and (odd, bob).
  EXPECT_TRUE(r.value().Contains({{4}, {Value("alice")}}));
  EXPECT_TRUE(r.value().Contains({{5}, {Value("bob")}}));
  EXPECT_FALSE(r.value().Contains({{4}, {Value("bob")}}));
}

TEST(EvalTest, ComparisonChains) {
  Database db = SmallDb();
  EXPECT_TRUE(Ask(db, "EXISTS a . EXISTS b . EXISTS c . "
                      "a <= b <= c AND a + 4 <= c AND P(a)")
                  .value());
  EXPECT_FALSE(Ask(db, "EXISTS a . a < a").value());
  EXPECT_TRUE(Ask(db, "EXISTS a . a <= a").value());
}

TEST(EvalTest, GroundComparisons) {
  Database db = SmallDb();
  EXPECT_TRUE(Ask(db, "3 <= 4").value());
  EXPECT_FALSE(Ask(db, "4 <= 3").value());
  EXPECT_TRUE(Ask(db, "EXISTS t . P(t) AND 1 = 1").value());
}

TEST(EvalTest, FreeVariablesRejectedInBooleanQueries) {
  Database db = SmallDb();
  Result<bool> r = Ask(db, "P(t)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- Yes/no statements: one emptiness test on the peeled body ----

TEST(EvalTest, YesNoStatementsPeelTheRootQuantifierPrefix) {
  Database db = SmallDb();
  Result<Prepared> exists = Prepared::Parse(
      "EXISTS t . EXISTS u . Less(t, u) AND P(t)", {}, Answer::kYesNo);
  ASSERT_TRUE(exists.ok()) << exists.status();
  ASSERT_TRUE(exists->Compile(db).ok());
  EXPECT_FALSE(exists->holds_when_empty());
  EXPECT_EQ(exists->query()->FreeVariables().size(), 0u);
  EXPECT_EQ(exists->rewritten()->FreeVariables(),
            (std::vector<std::string>{"t", "u"}));
  Result<bool> truth = EvalPreparedBoolean(db, *exists);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TRUE(truth.value());
  // A FORALL prefix plans NOT body; the statement holds iff it is empty.
  Result<Prepared> forall =
      Prepared::Parse("FORALL t . P(t) OR NOT P(t)", {}, Answer::kYesNo);
  ASSERT_TRUE(forall.ok()) << forall.status();
  ASSERT_TRUE(forall->Compile(db).ok());
  EXPECT_TRUE(forall->holds_when_empty());
  EXPECT_EQ(forall->rewritten()->FreeVariables(),
            (std::vector<std::string>{"t"}));
  truth = EvalPreparedBoolean(db, *forall);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TRUE(truth.value());
  // Each entry point answers only its own kind of statement.
  Result<Prepared> relation = Prepared::Parse("EXISTS t . P(t)", {});
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(EvalPreparedBoolean(db, *relation).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalPrepared(db, *forall).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EvalTest, StaticallyEmptyRootsAnswerFalseBeforeAnyFlip) {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n]; }
    relation Nothing(T: time) { }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  for (bool analyze : {true, false}) {
    SCOPED_TRACE(analyze ? "analyze on" : "analyze off");
    QueryOptions options;
    options.analyze = analyze;
    for (const char* text :
         {"EXISTS t . Nothing(t)", "EXISTS t . Nothing(t) AND P(t)",
          "FORALL t . Nothing(t)", "FORALL t . Nothing(t) AND P(t)",
          "FORALL t . EXISTS u . Nothing(u) AND P(t)"}) {
      Result<bool> truth = EvalBooleanQueryString(db.value(), text, options);
      ASSERT_TRUE(truth.ok()) << text << ": " << truth.status();
      EXPECT_FALSE(truth.value()) << text;
    }
    // The analysis proves the EXISTS root bit-empty: no plan is evaluated.
    Result<Prepared> prepared =
        Prepared::Parse("EXISTS t . Nothing(t)", options, Answer::kYesNo);
    ASSERT_TRUE(prepared.ok());
    ASSERT_TRUE(prepared->Compile(db.value()).ok());
    EXPECT_EQ(prepared->statically_empty(), analyze);
  }
}

// Closed conjuncts over disjoint variables are answered one part at a
// time: the body's cross product is never built, so a budget the product
// would blow still answers.
TEST(EvalTest, IndependentConjunctsAnswerWithoutTheirCrossProduct) {
  std::string text = "relation A(T: time) {";
  for (int i = 0; i < 30; ++i) text += " [" + std::to_string(i) + "+100n];";
  text += " }\nrelation B(T: time) {";
  for (int i = 0; i < 30; ++i) text += " [" + std::to_string(i) + "+200n];";
  text += " }\n";
  Result<Database> db = Database::FromText(text);
  ASSERT_TRUE(db.ok()) << db.status();
  for (bool analyze : {true, false}) {
    SCOPED_TRACE(analyze ? "analyze on" : "analyze off");
    QueryOptions options;
    options.analyze = analyze;
    options.algebra.max_tuples = 500;  // Below 30 * 30.
    // The product itself is over budget.
    Result<GeneralizedRelation> product =
        EvalQueryString(db.value(), "A(t) AND B(u)", options);
    ASSERT_FALSE(product.ok());
    EXPECT_EQ(product.status().code(), StatusCode::kResourceExhausted);
    // {statement, answer}: an EXISTS root, a FORALL root whose negated
    // body De Morgans into the same two conjuncts, and a part that is
    // empty.
    const std::pair<const char*, bool> cases[] = {
        {"EXISTS t . EXISTS u . A(t) AND B(u)", true},
        {"FORALL t . FORALL u . NOT A(t) OR NOT B(u)", false},
        {"EXISTS t . EXISTS u . A(t) AND B(u) AND u >= 30 AND u < 200",
         false},
    };
    for (const auto& [statement, expected] : cases) {
      SCOPED_TRACE(statement);
      Result<Prepared> prepared =
          Prepared::Parse(statement, options, Answer::kYesNo);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      ASSERT_TRUE(prepared->Compile(db.value()).ok());
      EXPECT_EQ(prepared->plans().size(), 2u);
      Result<bool> truth = EvalPreparedBoolean(db.value(), *prepared);
      ASSERT_TRUE(truth.ok()) << truth.status();
      EXPECT_EQ(truth.value(), expected);
      // The relation path, whose zero-column projections still multiply
      // to 30 * 30 tuples, agrees under the default budget.
      QueryOptions unbudgeted;
      unbudgeted.analyze = analyze;
      Result<GeneralizedRelation> rel =
          EvalQueryString(db.value(), statement, unbudgeted);
      ASSERT_TRUE(rel.ok()) << rel.status();
      Result<bool> empty = IsEmpty(rel.value(), unbudgeted.algebra);
      ASSERT_TRUE(empty.ok()) << empty.status();
      EXPECT_EQ(empty.value(), !expected);
    }
  }
}

// ---- The yes/no pull loop on the Theorem 4.1 join ----

// N tuples of the Busy shape: offsets 7i mod 30 without 12-14, so instant
// 14 of every period of 32 is a gap, and four workers.
Database BusyDb(int n) {
  GeneralizedRelation busy(
      Schema({"S", "E"}, {"Who"}, {DataType::kString}));
  for (int j = 0; busy.size() < n; ++j) {
    const int offset = (j * 7) % 30;
    if (offset >= 12 && offset <= 14) continue;
    GeneralizedTuple t({Lrp::Make(offset, 32), Lrp::Make(offset + 2, 32)},
                       {Value("w" + std::to_string(j % 4))});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -2);
    EXPECT_TRUE(busy.AddTuple(std::move(t)).ok());
  }
  Database db;
  db.Put("Busy", std::move(busy));
  return db;
}

// Two different workers busy at one instant of [lo, hi].
std::string BusyJoin(int lo, int hi) {
  return "EXISTS t . EXISTS s1 . EXISTS e1 . EXISTS s2 . EXISTS e2 . "
         "EXISTS w1 . EXISTS w2 . Busy(s1, e1, w1) AND Busy(s2, e2, w2) AND "
         "s1 <= t AND t <= e1 AND s2 <= t AND t <= e2 AND NOT w1 = w2 AND " +
         std::to_string(lo) + " <= t AND t <= " + std::to_string(hi);
}

struct PathCounts {
  Result<bool> answer = false;
  Result<bool> relation_empty = false;
  std::int64_t pull_pairs = 0;
  std::int64_t relation_pairs = 0;
};

// The yes/no answer of `text` and the emptiness of its body's relation,
// each with the candidate pairs its evaluation counted.  The body is the
// peeled, optimized tree the yes/no statement plans, evaluated as a
// relation statement under the same plan.
PathCounts CountBothPaths(const Database& db, const std::string& text,
                          QueryOptions options) {
  PathCounts out;
  KernelCounters pull_counters;
  options.algebra.counters = &pull_counters;
  Prepared yes_no(ParseQuery(text).value(), options, Answer::kYesNo);
  out.answer = EvalPreparedBoolean(db, yes_no);
  out.pull_pairs = pull_counters.pairs_candidate.load();
  if (!yes_no.Compile(db).ok()) return out;
  KernelCounters relation_counters;
  options.algebra.counters = &relation_counters;
  Prepared relation(yes_no.rewritten(), options);
  Result<GeneralizedRelation> rel = EvalPrepared(db, relation);
  out.relation_pairs = relation_counters.pairs_candidate.load();
  EXPECT_EQ(relation.plan()->ToString(), yes_no.plans().front()->ToString());
  out.relation_empty =
      rel.ok() ? IsEmpty(*rel, options.algebra) : Result<bool>(rel.status());
  return out;
}

TEST(EvalPullTest, TrueWindowStopsAtTheFirstWitness) {
  Database db = BusyDb(128);
  PathCounts counts = CountBothPaths(db, BusyJoin(100, 130), {});
  ASSERT_TRUE(counts.answer.ok()) << counts.answer.status();
  ASSERT_TRUE(counts.relation_empty.ok()) << counts.relation_empty.status();
  EXPECT_TRUE(*counts.answer);
  EXPECT_FALSE(*counts.relation_empty);
  EXPECT_GT(counts.pull_pairs, 0);
  EXPECT_LE(counts.pull_pairs * 8, counts.relation_pairs)
      << counts.pull_pairs << " vs " << counts.relation_pairs;
}

TEST(EvalPullTest, FalseWindowProbesEveryPairTheRelationJoins) {
  Database db = BusyDb(128);
  // 110 = 14 + 3 * 32: nobody is busy then.
  PathCounts counts = CountBothPaths(db, BusyJoin(110, 110), {});
  ASSERT_TRUE(counts.answer.ok()) << counts.answer.status();
  ASSERT_TRUE(counts.relation_empty.ok()) << counts.relation_empty.status();
  EXPECT_FALSE(*counts.answer);
  EXPECT_TRUE(*counts.relation_empty);
  EXPECT_GT(counts.pull_pairs, 0);
  EXPECT_EQ(counts.pull_pairs, counts.relation_pairs);
}

// Each chain node counts its candidates over every tuple it is fed: a
// false statement whose relation path exceeds the budget fails the same
// way, even though no single probe does.  A true one may now answer.
TEST(EvalPullTest, FalseStatementOverTheBudgetStillFails) {
  Database db = BusyDb(128);
  QueryOptions options;
  options.algebra.max_tuples = 5000;
  PathCounts over = CountBothPaths(db, BusyJoin(110, 110), options);
  ASSERT_FALSE(over.relation_empty.ok());
  EXPECT_EQ(over.relation_empty.status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_FALSE(over.answer.ok());
  EXPECT_EQ(over.answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.answer.status().message().find("Join: result exceeds 5000"),
            std::string::npos)
      << over.answer.status();
  PathCounts witness = CountBothPaths(db, BusyJoin(100, 130), options);
  ASSERT_TRUE(witness.answer.ok()) << witness.answer.status();
  EXPECT_TRUE(*witness.answer);
}

// The loop checks the statement's token between probes: cancelled once its
// first probe has run, it stops before the pairs a full run counts.
TEST(EvalPullTest, CancelledTokenStopsTheLoop) {
  Database db = BusyDb(128);
  QueryOptions options;
  const std::int64_t full = CountBothPaths(db, BusyJoin(110, 110), options)
                                .pull_pairs;
  KernelCounters counters;
  options.algebra.counters = &counters;
  CancellationToken token;
  std::thread canceller([&] {
    while (counters.pairs_candidate.load() == 0) std::this_thread::yield();
    token.Cancel();
  });
  Result<bool> answer = false;
  {
    CancellationScope scope(&token);
    answer = EvalBooleanQueryString(db, BusyJoin(110, 110), options);
  }
  // Unblocks the canceller if the statement failed before any probe.
  counters.pairs_candidate.fetch_add(1);
  canceller.join();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(answer.status().message().find("cancelled"), std::string::npos)
      << answer.status();
  EXPECT_LT(counters.pairs_candidate.load(), full);
}

// A statement runs on the thread that took it: neither the Theorem 4.1
// yes/no join nor a chain query over a complement hands work to the pool.
TEST(EvalPullTest, StatementsSubmitNoPoolTasks) {
  Database db = BusyDb(128);
  const std::int64_t before = ThreadPool::Global().stats().tasks_submitted;
  Result<bool> answer = EvalBooleanQueryString(db, BusyJoin(110, 110), {});
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(*answer);
  Result<GeneralizedRelation> chain = EvalQueryString(
      db,
      "Busy(s1, e1, w1) AND Busy(s2, e2, w2) AND s1 <= s2 AND NOT w1 = w2 "
      "AND NOT (EXISTS e . EXISTS w . Busy(s2, e, w) AND s1 = e)",
      {});
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_GT(chain->size(), 0u);
  EXPECT_EQ(ThreadPool::Global().stats().tasks_submitted, before);
}

// ---- One copy of equal tuples at EXISTS and OR ----

const obs::ProfileNode* FindNode(const obs::ProfileNode& node,
                                 const std::string& label) {
  if (node.label == label) return &node;
  for (const obs::ProfileNode& child : node.children) {
    if (const obs::ProfileNode* found = FindNode(child, label)) return found;
  }
  return nullptr;
}

// Busy's 128 tuples have 27 distinct (S, E) shapes, because the workers
// share shifts: EXISTS w keeps one copy of each.
TEST(EvalSetTest, ExistsKeepsOneCopyOfEqualTuples) {
  Database db = BusyDb(128);
  Result<GeneralizedRelation> shapes =
      EvalQueryString(db, "EXISTS w . Busy(s, e, w)");
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(shapes->size(), 27);
  // The plain projection keeps all 128 and has the same points.
  Result<GeneralizedRelation> busy = db.Get("Busy");
  ASSERT_TRUE(busy.ok()) << busy.status();
  Result<GeneralizedRelation> projected = Project(*busy, {"E", "S"});
  ASSERT_TRUE(projected.ok()) << projected.status();
  EXPECT_EQ(projected->size(), 128);
  Result<GeneralizedRelation> plain =
      Rename(*projected, {{"E", "e"}, {"S", "s"}});
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->schema(), shapes->schema());
  Result<bool> same = Equivalent(*shapes, *plain);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same);
}

// The Theorem 4.1 negation template: the NOT complements the 31 distinct
// tuples of EXISTS s (its projections make 384), and the answer is what
// the one gap of Busy, instant 14 of every period of 32, says.
TEST(EvalSetTest, NegationTemplateComplementsOneCopyOfEachTuple) {
  Database db = BusyDb(128);
  const std::pair<const char*, bool> windows[] = {
      {"110 <= t AND t <= 110", true}, {"100 <= t AND t <= 105", false}};
  for (const auto& [window, truth] : windows) {
    const std::string text =
        std::string("EXISTS t . ") + window +
        " AND NOT (EXISTS s . EXISTS e . EXISTS w . Busy(s, e, w) AND "
        "s <= t AND t <= e)";
    Prepared prepared(ParseQuery(text).value(), {}, Answer::kYesNo);
    obs::Profile profile;
    Result<bool> answer = EvalPreparedBoolean(db, prepared, &profile);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(*answer, truth) << text;
    const obs::ProfileNode* exists_s = FindNode(profile.root, "EXISTS s");
    ASSERT_NE(exists_s, nullptr) << profile.ToText();
    EXPECT_EQ(exists_s->Metric("tuples_out", -1), 31) << profile.ToText();
  }
}

Database TwoTupleDb() {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [1+6n] : T >= 1; [2+10n]; }
    relation D(T: time) { [2n]; [2n]; }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TEST(EvalSetTest, OrKeepsOneCopyOfEqualTuples) {
  Database db = TwoTupleDb();
  Result<GeneralizedRelation> once = EvalQueryString(db, "P(t)");
  Result<GeneralizedRelation> twice = EvalQueryString(db, "P(t) OR P(t)");
  ASSERT_TRUE(once.ok()) << once.status();
  ASSERT_TRUE(twice.ok()) << twice.status();
  EXPECT_EQ(once->size(), 2);
  EXPECT_EQ(twice->tuples(), once->tuples());
}

// A union with an empty operand is the other operand as it was, so the
// analyzer's dead-branch rewrite, which drops that operand, prints what
// the plain OR prints, D's stored copies included.
TEST(EvalSetTest, OrWithAnEmptyOperandIsTheOtherOperand) {
  Database db = TwoTupleDb();
  Result<GeneralizedRelation> atom = EvalQueryString(db, "D(t)");
  ASSERT_TRUE(atom.ok()) << atom.status();
  EXPECT_EQ(atom->size(), 2);
  for (bool analyze : {false, true}) {
    QueryOptions options;
    options.analyze = analyze;
    Result<GeneralizedRelation> both =
        EvalQueryString(db, "D(t) OR (D(t) AND 3 < 2)", options);
    ASSERT_TRUE(both.ok()) << both.status();
    EXPECT_EQ(both->tuples(), atom->tuples()) << "analyze=" << analyze;
  }
}

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Every compiling `# check:` query, closed by EXISTS and by FORALL over its
// free variables, answers through the peeled yes/no path exactly as the
// relation path's result is nonempty -- with analyze and optimize each on
// and off.
TEST(EvalTest, ClosedCheckQueriesAnswerAsTheRelationPath) {
  int compared = 0;
  int true_answers = 0;
  for (const char* dir : {ITDB_EXAMPLES_QUERIES_DIR, ITDB_FUZZ_CORPUS_DIR}) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".itdb") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& path : files) {
      SCOPED_TRACE(path.filename().string());
      const std::string text = ReadAll(path);
      Result<Database> db = Database::FromText(text);
      ASSERT_TRUE(db.ok()) << db.status();
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        const std::string prefix = "# check:";
        if (line.rfind(prefix, 0) != 0) continue;
        Result<QueryPtr> open = ParseQuery(line.substr(prefix.size()));
        ASSERT_TRUE(open.ok()) << line << ": " << open.status();
        const std::vector<std::string> free = open.value()->FreeVariables();
        for (bool universal : {false, true}) {
          QueryPtr closed = open.value();
          for (auto v = free.rbegin(); v != free.rend(); ++v) {
            closed = universal ? Query::Forall(*v, closed)
                               : Query::Exists(*v, closed);
          }
          for (bool analyze : {true, false}) {
            for (bool optimize : {true, false}) {
              QueryOptions options;
              options.analyze = analyze;
              options.optimize = optimize;
              Prepared relation(closed, options);
              Result<GeneralizedRelation> rel =
                  EvalPrepared(db.value(), relation);
              if (!rel.ok()) continue;  // Does not compile.
              Result<bool> empty = IsEmpty(rel.value(), options.algebra);
              ASSERT_TRUE(empty.ok()) << empty.status();
              Prepared yes_no(closed, options, Answer::kYesNo);
              Result<bool> answer = EvalPreparedBoolean(db.value(), yes_no);
              ASSERT_TRUE(answer.ok())
                  << closed->ToString() << ": " << answer.status();
              EXPECT_EQ(answer.value(), !empty.value())
                  << closed->ToString() << " (analyze " << analyze
                  << ", optimize " << optimize << ")";
              ++compared;
              true_answers += answer.value() ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 40);
  EXPECT_GT(true_answers, 0);
  EXPECT_LT(true_answers, compared);
}

// ---- The Example 2.4 train anomaly ----

TEST(EvalTest, Example24IntervalsPreventPhantomTrains) {
  // Trains every hour: slow (xx:02 -> xx+1:20), express (xx:46 -> xx+1:50),
  // minutes since midnight, period 60.  The interval representation must
  // NOT contain the phantom train xx:46 -> xx:50 that the two point-based
  // unary relations would fabricate.
  Result<Database> db = Database::FromText(R"(
    relation Train(Leave: time, Arrive: time) {
      [2+60n, 80+60n] : Leave = Arrive - 78;
      [46+60n, 110+60n] : Leave = Arrive - 64;
    }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(Ask(db.value(), "Train(62, 140)").value());
  EXPECT_TRUE(Ask(db.value(), "Train(106, 170)").value());
  // The phantom: leaves at :46 and arrives at :50 four minutes later.
  EXPECT_FALSE(Ask(db.value(), "Train(106, 110)").value());
  EXPECT_FALSE(
      Ask(db.value(), "EXISTS t . Train(t, t + 4)").value());
}

// ---- Example 4.1 of the paper ----

Database RobotsDb(bool conflicting) {
  std::string text = R"(
    relation Perform(T1: time, T2: time, Robot: string, Task: string) {
      [8n, 6+8n | "r1", "task2"] : T1 = T2 - 6;
      [7+8n, 7+8n | "r2", "task1"] : T1 = T2;
    }
  )";
  if (conflicting) {
    text = R"(
      relation Perform(T1: time, T2: time, Robot: string, Task: string) {
        [8n, 6+8n | "r1", "task2"] : T1 = T2 - 6;
        [2+8n, 4+8n | "r2", "task1"] : T1 = T2 - 2;
      }
    )";
  }
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TEST(EvalTest, Example41PinnedRobotQuiet) {
  // r2 only works at instants 7 (mod 8), never inside [0, 6]: during r1's
  // task2 interval [0, 6], r2 performs nothing.
  Database db = RobotsDb(/*conflicting=*/false);
  Result<bool> r = Ask(db,
                       "FORALL t3 . FORALL t4 . FORALL z . "
                       "(0 <= t3 AND t3 <= t4 AND t4 <= 6) -> "
                       "NOT Perform(t3, t4, \"r2\", z)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
}

TEST(EvalTest, Example41PinnedRobotBusy) {
  // Here r2 works during (2, 4), inside [0, 6].
  Database db = RobotsDb(/*conflicting=*/true);
  Result<bool> r = Ask(db,
                       "FORALL t3 . FORALL t4 . FORALL z . "
                       "(0 <= t3 AND t3 <= t4 AND t4 <= 6) -> "
                       "NOT Perform(t3, t4, \"r2\", z)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r.value());
}

TEST(EvalTest, Example41PaperOriginalForm) {
  // The formula exactly as printed in the paper (universal block scoping
  // over the whole implication).  Naive evaluation would complement over
  // seven columns; the miniscoping optimizer makes it tractable.
  Database db = RobotsDb(/*conflicting=*/false);
  Result<bool> r = Ask(db, R"(
    EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 .
      FORALL t3 . FORALL t4 . FORALL z .
        (Perform(t1, t2, x, "task2") AND t1 <= t3 <= t4 <= t2
           AND t1 + 5 <= t2)
        -> NOT Perform(t3, t4, y, z)
  )");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
}

TEST(EvalTest, Example41FullQuery) {
  // The paper's Example 4.1 (miniscoped form): there are robots x, y such
  // that whenever x performs task2 over an interval of length >= 5, y
  // performs nothing during any part of that interval.
  Database db = RobotsDb(/*conflicting=*/false);
  Result<bool> r = Ask(db,
                       "EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 . "
                       "Perform(t1, t2, x, \"task2\") AND t1 + 5 <= t2 AND "
                       "(FORALL t3 . FORALL t4 . "
                       " (t1 <= t3 AND t3 <= t4 AND t4 <= t2) -> "
                       " (FORALL z . NOT Perform(t3, t4, y, z)))");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
}

TEST(EvalTest, ActiveDomainKeepsConstantsOfEliminatedBranches) {
  // "zzz" occurs only in the OR branch the analyzer drops as bit-empty (E
  // has no tuples).  The surviving complement ranges x over the active
  // domain, which must still hold "zzz": it is seeded from the parsed
  // query, never from the rewritten tree.
  Result<Database> db = Database::FromText(R"(
    relation P(T: time, X: string) { [2n | "a"]; }
    relation E(T: time, X: string) { }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  const char* text = "(NOT P(t, x)) OR (E(t, x) AND x = \"zzz\")";
  QueryOptions on;
  QueryOptions off;
  off.analyze = false;
  Result<Prepared> prepared = Prepared::Parse(text, on);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(prepared->Compile(db.value()).ok());
  EXPECT_EQ(prepared->rewritten()->ToString().find("zzz"), std::string::npos)
      << prepared->rewritten()->ToString();
  Result<GeneralizedRelation> with = EvalQueryString(db.value(), text, on);
  Result<GeneralizedRelation> without = EvalQueryString(db.value(), text, off);
  ASSERT_TRUE(with.ok()) << with.status();
  ASSERT_TRUE(without.ok()) << without.status();
  EXPECT_EQ(with.value().schema(), without.value().schema());
  EXPECT_EQ(with.value().tuples(), without.value().tuples());
  int zzz_rows = 0;
  for (const GeneralizedTuple& t : with.value().tuples()) {
    if (t.data()[0] == Value("zzz")) ++zzz_rows;
  }
  EXPECT_GT(zzz_rows, 0) << PrintRelation("result", with.value());
}

}  // namespace
}  // namespace itdb
}  // namespace query
