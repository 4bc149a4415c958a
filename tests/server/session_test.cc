#include "server/session.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.h"
#include "obs/metrics.h"
#include "server/result_cache.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace itdb {
namespace server {
namespace {

constexpr const char* kCatalog = R"(
relation P(T: time) {
  [3+10n] : T >= 3;
}
relation Q(T: time) {
  [4n];
}
)";

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Database> db = Database::FromText(kCatalog);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    shared_.emplace(&db_);
  }

  std::string Run(Session& session, const std::string& statement,
                  Status* status = nullptr) {
    std::ostringstream out;
    Status s = session.Execute(statement, out);
    if (status != nullptr) *status = s;
    return out.str();
  }

  Database db_;
  std::optional<SharedDatabase> shared_;
};

TEST_F(SessionTest, FeedAssemblesExecutesAndQuits) {
  Session session(&*shared_);
  std::ostringstream out;
  using Disposition = Session::FeedResult::Disposition;
  EXPECT_EQ(session.Feed("define relation R(T: time) {", out).disposition,
            Disposition::kNeedMore);
  EXPECT_TRUE(session.has_pending());
  EXPECT_EQ(session.Feed("  [2n];", out).disposition, Disposition::kNeedMore);
  Session::FeedResult done = session.Feed("}", out);
  EXPECT_EQ(done.disposition, Disposition::kDone);
  EXPECT_TRUE(done.status.ok()) << done.status;
  EXPECT_TRUE(db_.Has("R"));
  EXPECT_EQ(session.Feed("quit", out).disposition, Disposition::kQuit);
}

TEST_F(SessionTest, AbortPendingLeavesCatalogUntouched) {
  Session session(&*shared_);
  std::ostringstream out;
  session.Feed("define relation Half(T: time) {", out);
  session.Feed("  [5n];", out);
  EXPECT_TRUE(session.has_pending());
  EXPECT_TRUE(session.AbortPending());
  EXPECT_FALSE(session.has_pending());
  EXPECT_FALSE(db_.Has("Half"));
  EXPECT_FALSE(session.AbortPending());
  // The session still works after the abort.
  Status status;
  Run(session, "list", &status);
  EXPECT_TRUE(status.ok());
}

TEST_F(SessionTest, CommentsApplyToFirstLineOnly) {
  Session session(&*shared_);
  // '#' on a statement-initial line is a comment ...
  EXPECT_EQ(session.AppendLine("list # trailing"),
            std::optional<std::string>("list "));
  // ... but inside a define block it reaches the parser untouched.
  EXPECT_EQ(session.AppendLine("define relation C(T: time) {"), std::nullopt);
  EXPECT_EQ(session.AppendLine("  [2n]; # kept"), std::nullopt);
  std::optional<std::string> statement = session.AppendLine("}");
  ASSERT_TRUE(statement.has_value());
  EXPECT_NE(statement->find("# kept"), std::string::npos);
}

TEST_F(SessionTest, FetchPaginatesTheLastQueryResult) {
  Session session(&*shared_);
  Status status;
  Run(session, "query Q(t) OR P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  std::string page = Run(session, "fetch 1", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(page.find("relation fetch"), std::string::npos) << page;
  EXPECT_NE(page.find("1 tuple(s), 1 remaining"), std::string::npos) << page;
  page = Run(session, "fetch", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_NE(page.find("0 remaining"), std::string::npos) << page;
  // Drained: further fetches return empty pages, not errors.
  page = Run(session, "fetch 5", &status);
  EXPECT_TRUE(status.ok());
  EXPECT_NE(page.find("0 tuple(s), 0 remaining"), std::string::npos) << page;
}

// A fetch of more rows than remain takes the rest; the cursor's position
// must not overflow on a huge count.
TEST_F(SessionTest, HugeFetchDrainsTheCursorWithoutOverflow) {
  Session session(&*shared_);
  Status status;
  Run(session, "query Q(t) OR P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  Run(session, "fetch 1", &status);
  ASSERT_TRUE(status.ok()) << status;
  std::string page = Run(session, "fetch 9223372036854775807", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(page.find("1 tuple(s), 0 remaining"), std::string::npos) << page;
  page = Run(session, "fetch 3", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(page.find("0 tuple(s), 0 remaining"), std::string::npos) << page;
}

// enumerate counts the window's candidate points before it builds any row
// and refuses a window past the session's tuple budget.
TEST_F(SessionTest, EnumerateChargesTheWindowAgainstTheTupleBudget) {
  SessionOptions options;
  options.max_tuples = 8;
  Session session(&*shared_, options);
  Status status;
  // Q is [4n]: 26 members in [0, 100], 3 in [0, 8].
  std::string rows = Run(session, "enumerate Q 0 100", &status);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_NE(status.message().find("more than 8 candidate points"),
            std::string::npos)
      << status;
  EXPECT_EQ(rows.find("row(s)"), std::string::npos) << rows;
  rows = Run(session, "enumerate Q 0 8", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(rows.find("(0)"), std::string::npos) << rows;
  EXPECT_NE(rows.find("(8)"), std::string::npos) << rows;
  EXPECT_NE(rows.find("3 row(s)"), std::string::npos) << rows;
}

TEST_F(SessionTest, FetchWithoutQueryFails) {
  Session session(&*shared_);
  Status status;
  Run(session, "fetch", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, SetListsAndUpdatesOptions) {
  Session session(&*shared_);
  Status status;
  std::string listing = Run(session, "set", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(listing, "deadline_ms  0\n");
  Run(session, "set deadline_ms 250", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(session.options().deadline_ms, 250);
  Run(session, "set bogus 1", &status);
  EXPECT_FALSE(status.ok());
  Run(session, "set deadline_ms lots", &status);
  EXPECT_FALSE(status.ok());
  // The pipeline switches are gone: every statement is analyzed, optimized
  // and planned.
  const std::string refused = Run(session, "set analyze off", &status);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.rfind("error: ", 0), 0u) << refused;
  EXPECT_NE(refused.find("unknown option \"analyze\""), std::string::npos)
      << refused;
}

TEST_F(SessionTest, EveryListedOptionParsesAndPruneIsGone) {
  // Each line of the bare `set` listing is `<name> <value>`; feeding it
  // back verbatim must be accepted, so the listing and the parser agree.
  Session session(&*shared_);
  Status status;
  std::string listing = Run(session, "set", &status);
  ASSERT_TRUE(status.ok());
  std::istringstream lines(listing);
  std::string line;
  int options = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string value;
    ASSERT_TRUE(fields >> name >> value) << line;
    Run(session, "set " + name + " " + value, &status);
    EXPECT_TRUE(status.ok()) << line << ": " << status;
    ++options;
  }
  EXPECT_EQ(options, 1) << listing;
  EXPECT_EQ(Run(session, "set", &status), listing);
  // Deleted knobs are unknown options, not silently accepted ones: every
  // statement runs the full pipeline, on the thread that took it.
  for (const char* gone :
       {"set prune on", "set certified_bounds on", "set analyze on",
        "set analyze off", "set optimize off", "set cost_plan off",
        "set threads 2"}) {
    Run(session, gone, &status);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << gone;
    EXPECT_NE(status.message().find("unknown option"), std::string::npos)
        << gone << ": " << status;
  }
  EXPECT_EQ(listing.find("certified_bounds"), std::string::npos) << listing;
}

TEST_F(SessionTest, ReadOnlySessionRejectsMutation) {
  SessionOptions options;
  options.read_only = true;
  Session session(&*shared_, options);
  Status status;
  for (const char* statement :
       {"define relation X(T: time) { [2n]; }", "drop P", "coalesce P",
        "simplify P", "load /nonexistent", "save /nonexistent"}) {
    std::string out = Run(session, statement, &status);
    EXPECT_FALSE(status.ok()) << statement;
    EXPECT_NE(out.find("read-only session"), std::string::npos) << statement;
  }
  EXPECT_TRUE(db_.Has("P"));
  // Reads still work.
  Run(session, "ask EXISTS t . P(t)", &status);
  EXPECT_TRUE(status.ok());
}

TEST_F(SessionTest, DeadlineAbortsExpensiveQueries) {
  SessionOptions options;
  options.deadline_ms = 1;
  Session session(&*shared_, options);
  // Two complements joined on nothing: ~half a million candidate pairs --
  // far past a 1 ms budget, aborted by the cooperative checks.
  Status status;
  Run(session,
      "define relation Wide(T: time) { [720n]; }", &status);
  ASSERT_TRUE(status.ok());
  Run(session,
      "define relation Tall(T: time) { [1+720n]; }", &status);
  ASSERT_TRUE(status.ok());
  Run(session, "query NOT Wide(t) AND NOT Tall(u)", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  // The failed query seats no cursor.
  Run(session, "fetch", &status);
  EXPECT_FALSE(status.ok());
  // Clearing the deadline restores normal service for cheap queries.
  Run(session, "set deadline_ms 0", &status);
  ASSERT_TRUE(status.ok());
  std::string answer = Run(session, "ask EXISTS t . P(t)", &status);
  EXPECT_TRUE(status.ok());
  EXPECT_NE(answer.find("true"), std::string::npos);
}

TEST_F(SessionTest, StatsCountCommandsQueriesAndErrors) {
  Session session(&*shared_);
  Status status;
  Run(session, "list", &status);
  Run(session, "ask EXISTS t . P(t)", &status);
  Run(session, "show nope", &status);
  EXPECT_EQ(session.stats().commands, 3);
  EXPECT_EQ(session.stats().queries, 1);
  EXPECT_EQ(session.stats().errors, 1);
}

// tlcheck and sat run the session's statement pipeline, so the session's
// tuple budget binds them as it binds ask and query: a proposition with
// more tuples than the budget fails both with the budget status.
TEST_F(SessionTest, TemporalLogicVerbsObeyTheSessionTupleBudget) {
  Session writer(&*shared_);
  Status status;
  Run(writer, "define relation p(T: time) { [2n]; [1+4n]; [3+8n]; }",
      &status);
  ASSERT_TRUE(status.ok()) << status;
  SessionOptions options;
  options.max_tuples = 2;
  Session session(&*shared_, options);
  for (const char* statement : {"sat p", "tlcheck G(p)"}) {
    std::string out = Run(session, statement, &status);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << statement << ": " << status << "\n" << out;
    EXPECT_NE(status.message().find("exceeds 2 tuples"), std::string::npos)
        << statement << ": " << status;
  }
}

// tlcheck and sat run through the statement pipeline like every other
// verb.
TEST_F(SessionTest, TemporalLogicVerbsAnswer) {
  const char* statements[] = {
      "tlcheck G(P -> F[0,9](Q))", "tlcheck G(Q -> F[0,2](P))",
      "sat F[0,3](P) & !Q",        "sat P U Q",
      "sat H(!P) | O(Q & X(Q))",   "tlcheck G(F(P))",
  };
  std::string answers;
  Session session(&*shared_);
  Status status;
  for (const char* statement : statements) {
    answers += Run(session, statement, &status);
    EXPECT_TRUE(status.ok()) << statement << ": " << status;
  }
  EXPECT_NE(answers.find("PASS"), std::string::npos) << answers;
  EXPECT_NE(answers.find("FAIL: violated on"), std::string::npos);
  EXPECT_NE(answers.find("relation sat(T: time)"), std::string::npos);
}

TEST_F(SessionTest, ExecuteMatchesShellOutputShapes) {
  // The session IS the shell's engine; spot-check the classic outputs.
  Session session(&*shared_);
  Status status;
  EXPECT_NE(Run(session, "help", &status).find("commands:"),
            std::string::npos);
  EXPECT_NE(Run(session, "ask P(3)", &status).find("true"),
            std::string::npos);
  EXPECT_NE(Run(session, "query P(t) AND t <= 23", &status)
                .find("relation result"),
            std::string::npos);
  std::string unknown = Run(session, "frobnicate", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(unknown.find("unknown command \"frobnicate\" (try: help)"),
            std::string::npos);
}

// The work one statement costs, pinned: every query verb analyzes exactly
// once, and a result-table hit analyzes not at all -- with every server
// collaborator wired (result table, stats cache).
TEST_F(SessionTest, EachStatementAnalyzesOnceAndCacheHitsNever) {
  ResultCache cache(std::size_t{1} << 20);
  StatsCache stats;
  SessionOptions options;
  options.result_cache = &cache;
  options.stats_cache = &stats;
  Session session(&*shared_, options);
  auto analyses = [](Session& s, const std::string& statement) {
    obs::Counter* runs =
        obs::MetricsRegistry::Global().GetCounter("analysis.runs");
    const std::int64_t before = runs->value();
    std::ostringstream out;
    Status status = s.Execute(statement, out);
    EXPECT_TRUE(status.ok()) << statement << ": " << status;
    return runs->value() - before;
  };
  EXPECT_EQ(analyses(session, "ask EXISTS t . P(t) AND t <= 40"), 1);
  EXPECT_EQ(analyses(session, "query Q(t) AND t <= 12"), 1);
  EXPECT_EQ(analyses(session, "profile P(t) AND Q(t)"), 1);
  EXPECT_EQ(analyses(session, "explain P(t) AND Q(t)"), 1);
  // A FORALL-rooted ask plans its peeled body inside the same compile.
  EXPECT_EQ(analyses(session, "ask FORALL t . P(t) OR NOT Q(t)"), 1);
  EXPECT_EQ(analyses(session, "explain ask FORALL t . P(t) OR NOT Q(t)"), 1);
  EXPECT_EQ(session.stats().cache_hits, 0);
  EXPECT_EQ(analyses(session, "ask EXISTS t . P(t) AND t <= 40"), 0);
  EXPECT_EQ(analyses(session, "query Q(t) AND t <= 12"), 0);
  EXPECT_EQ(session.stats().cache_hits, 2);
  // A FORALL root has no bounded certificate, so its answer is never
  // admitted to the cache: the repeat is a miss and analyzes once again.
  EXPECT_EQ(analyses(session, "ask FORALL t . P(t) OR NOT Q(t)"), 1);
  EXPECT_EQ(session.stats().cache_hits, 2);
  // A plain session (the shell's: no cache) analyzes once too.
  Session plain(&*shared_);
  EXPECT_EQ(analyses(plain, "ask EXISTS t . P(t) AND t <= 40"), 1);
  EXPECT_EQ(analyses(plain, "query Q(t) AND t <= 12"), 1);
}

// Keeps the plan-tree lines of `explain` / `profile` output: the labels
// and their indentation, without annotations.  `first` is the line after
// which the tree starts.
std::vector<std::string> TreeLines(const std::string& text,
                                   const std::string& first,
                                   const std::string& suffix_marker,
                                   std::size_t strip_indent) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  bool in_tree = false;
  while (std::getline(in, line)) {
    if (!in_tree) {
      in_tree = line.rfind(first, 0) == 0;
      continue;
    }
    const std::size_t cut = line.find(suffix_marker);
    if (cut == std::string::npos) break;
    lines.push_back(line.substr(strip_indent, cut - strip_indent));
  }
  return lines;
}

TEST_F(SessionTest, ExplainPrintsThePlanProfileRuns) {
  Session session(&*shared_);
  Status status;
  Run(session, "define relation Nothing(T: time) {\n}", &status);
  ASSERT_TRUE(status.ok()) << status;
  // The second branch is dead (A009, an empty relation): the sound rewrite
  // drops it, so evaluation runs only the first.
  const std::string query = "(P(t) AND t <= 40) OR (Nothing(t) AND P(t))";
  const std::string explained = Run(session, "explain " + query, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(explained.find("warning[A009]"), std::string::npos) << explained;
  EXPECT_NE(explained.find("optimized: (P(t) AND t <= 40)\n"),
            std::string::npos)
      << explained;
  const std::vector<std::string> plan = TreeLines(explained, "plan:", "  (", 0);
  const std::vector<std::string> golden = {"AND", "  ATOM P(t)",
                                           "  CMP t <= 40"};
  EXPECT_EQ(plan, golden) << explained;
  const std::string profiled = Run(session, "profile " + query, &status);
  ASSERT_TRUE(status.ok()) << status;
  // Profile nodes sit one level under the root "query ..." span.
  EXPECT_EQ(TreeLines(profiled, "query ", "  [", 2), plan) << profiled;
}

// `explain ask` prints the plan `ask` runs -- the body under the peeled
// root quantifiers -- and which emptiness of it answers true.
TEST_F(SessionTest, ExplainAskPrintsThePeeledBodyPlan) {
  Session session(&*shared_);
  Status status;
  EXPECT_EQ(Run(session, "explain ask EXISTS t . P(t) AND Q(t)", &status),
            "query:     EXISTS t . ((P(t) AND Q(t)))\n"
            "optimized: (P(t) AND Q(t))\n"
            "plan:\n"
            "AND  (est_rows=1, est_cost=4, cert_rows=1, cert_lcm=20)\n"
            "  ATOM P(t)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=10)\n"
            "  ATOM Q(t)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=4)\n"
            "answer: true iff the plan's relation is nonempty\n");
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "ask EXISTS t . P(t) AND Q(t)"), "false\n");
  EXPECT_EQ(
      Run(session, "explain ask FORALL t . t < 3 OR P(t) OR Q(t)", &status),
      "query:     NOT (EXISTS t . (NOT (((t < 3 OR P(t)) OR Q(t)))))\n"
      "optimized: ((t >= 3 AND NOT (P(t))) AND NOT (Q(t)))\n"
      "analysis:\n"
      "note[A017] at 1:1: no finite certificate: the result's cardinality "
      "cannot be bounded statically\n"
      "plan:\n"
      "AND  (est_rows=1, est_cost=37, cert_rows=unbounded, cert_lcm=20)\n"
      "  AND  (est_rows=1, est_cost=19, cert_rows=unbounded, cert_lcm=10)\n"
      "    CMP t >= 3  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=1)\n"
      "    NOT  (est_rows=8, est_cost=9, cert_rows=unbounded, cert_lcm=10)\n"
      "      ATOM P(t)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=10)\n"
      "  NOT  (est_rows=8, est_cost=9, cert_rows=unbounded, cert_lcm=4)\n"
      "    ATOM Q(t)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=4)\n"
      "answer: true iff the plan's relation is empty\n");
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "ask FORALL t . t < 3 OR P(t) OR Q(t)"), "false\n");
  // Conjuncts over disjoint variables are separate parts, each answered
  // by its own emptiness test.
  const std::string disjoint =
      "FORALL t . FORALL u . NOT P(t) OR u > 8 OR NOT Q(u)";
  EXPECT_EQ(
      Run(session, "explain ask " + disjoint, &status),
      "query:     NOT (EXISTS t . (NOT (NOT (EXISTS u . (NOT (((NOT (P(t)) "
      "OR u > 8) OR NOT (Q(u)))))))))\n"
      "optimized: ((P(t) AND u <= 8) AND Q(u))\n"
      "analysis:\n"
      "warning[A010] at 1:12: complement over 2 temporal columns: "
      "nonemptiness of complements is NP-complete (Theorem 3.5) and the "
      "normal form can grow exponentially\n"
      "note[A017] at 1:1: no finite certificate: the result's cardinality "
      "cannot be bounded statically\n"
      "plan:\n"
      "part 1 of 2:\n"
      "ATOM P(t)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=10)\n"
      "part 2 of 2:\n"
      "AND  (est_rows=0, est_cost=3, cert_rows=1, cert_lcm=4)\n"
      "  CMP u <= 8  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=1)\n"
      "  ATOM Q(u)  (est_rows=1, est_cost=1, cert_rows=1, cert_lcm=4)\n"
      "answer: true iff some part's relation is empty\n");
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "ask " + disjoint), "false\n");
}

// Response properties over three-tuple periodic propositions (periods 6,
// 10, 15 and 4, 9, 14): `sat` runs each G as a negated existential, so no
// complement spans the unprojected scope at period 1260, and residue
// families that coalesce to one tuple print it once.
TEST_F(SessionTest, TemporalLogicOverThreeTuplePropositions) {
  Session session(&*shared_);
  Status status;
  Run(session, "define relation r(T: time) { [1+6n]; [3+10n]; [7+15n]; }",
      &status);
  ASSERT_TRUE(status.ok()) << status;
  Run(session, "define relation q(T: time) { [2+4n]; [5+9n]; [11+14n]; }",
      &status);
  ASSERT_TRUE(status.ok()) << status;
  const std::string everywhere =
      "relation sat(T: time) {\n  [0+1n];\n}\n1 generalized tuple(s)\n";
  EXPECT_EQ(Run(session, "sat G(r -> F(q))", &status), everywhere);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "tlcheck G(r -> F(q))", &status),
            "PASS: holds at every instant\n");
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "sat F(q)", &status), everywhere);
  EXPECT_TRUE(status.ok()) << status;
}

// `explain tlcheck` and `explain sat` compile the formula's first-order
// query exactly as the verb does; `profile sat` evaluates that plan.
TEST_F(SessionTest, ExplainAndProfileTemporalLogicVerbs) {
  Session session(&*shared_);
  Status status;
  const std::string tlcheck =
      Run(session, "explain tlcheck G(P -> F[0,9](Q))", &status);
  ASSERT_TRUE(status.ok()) << status;
  // The yes/no statement FORALL T . phi(T) -- NOT EXISTS T . NOT phi(T)
  // -- peeled to NOT phi(T).
  EXPECT_EQ(tlcheck.rfind("query:     NOT (EXISTS T . (NOT (NOT (EXISTS t1 . ",
                          0),
            0u)
      << tlcheck;
  EXPECT_NE(tlcheck.find("\n  AND  (est_rows=0, est_cost=3, cert_rows=1, "
                         "cert_lcm=10)\n    CMP T <= t1  "),
            std::string::npos)
      << tlcheck;
  EXPECT_NE(tlcheck.find("\nanswer: true iff the plan's relation is empty\n"),
            std::string::npos)
      << tlcheck;

  const std::string sat = Run(session, "explain sat P U Q", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(sat.rfind("query:     EXISTS t1 . (((T <= t1 AND Q(t1)) AND "
                      "NOT (EXISTS t2 . ",
                      0),
            0u)
      << sat;
  EXPECT_EQ(sat.find("answer:"), std::string::npos) << sat;
  const std::vector<std::string> plan = TreeLines(sat, "plan:", "  (", 0);
  const std::vector<std::string> golden = {
      "EXISTS t1",
      "  AND",
      "    AND",
      "      CMP T <= t1",
      "      ATOM Q(t1)",
      "    NOT",
      "      EXISTS t2",
      "        AND",
      "          AND",
      "            CMP T <= t2",
      "            CMP t2 < t1",
      "          NOT",
      "            ATOM P(t2)",
  };
  EXPECT_EQ(plan, golden) << sat;

  const std::string profiled = Run(session, "profile sat P U Q", &status);
  ASSERT_TRUE(status.ok()) << status;
  // The profile prints each AND chain as one AND span over its conjuncts,
  // in the order they are fed; explain keeps the nested left-deep tree.
  const std::vector<std::string> profile_golden = {
      "EXISTS t1",
      "  AND",
      "    CMP T <= t1",
      "    ATOM Q(t1)",
      "    NOT",
      "      EXISTS t2",
      "        AND",
      "          CMP T <= t2",
      "          CMP t2 < t1",
      "          NOT",
      "            ATOM P(t2)",
  };
  EXPECT_EQ(TreeLines(profiled, "query ", "  [", 2), profile_golden)
      << profiled;
  EXPECT_NE(profiled.find("\n6 generalized tuple(s)\n"), std::string::npos)
      << profiled;

  // A proposition that names no relation fails as `sat` fails.
  Run(session, "profile sat Nope", &status);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
  // A yes/no verb profiles its pull loop: one root span per part, over the
  // children it materialized, then the answer.
  const std::string asked = Run(session, "profile ask EXISTS t . P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(asked.rfind("pull P(t)  [", 0), 0u) << asked;
  EXPECT_NE(asked.find("outer_pulled=1 candidates_tested=1 found=1"),
            std::string::npos)
      << asked;
  EXPECT_EQ(TreeLines("\n" + asked, "", "  [", 0),
            (std::vector<std::string>{"pull P(t)", "  ATOM P(t)"}))
      << asked;
  EXPECT_NE(asked.find("\nanswer: true\n"), std::string::npos) << asked;
  const std::string checked = Run(session, "profile tlcheck G(P)", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(checked.rfind("pull ", 0), 0u) << checked;
  EXPECT_NE(checked.find("\nanswer: false\n"), std::string::npos) << checked;
}

TEST_F(SessionTest, IsQuitStatement) {
  EXPECT_TRUE(Session::IsQuitStatement("quit"));
  EXPECT_TRUE(Session::IsQuitStatement("  exit  "));
  EXPECT_FALSE(Session::IsQuitStatement("quitter"));
  EXPECT_FALSE(Session::IsQuitStatement(""));
}

}  // namespace
}  // namespace server
}  // namespace itdb
