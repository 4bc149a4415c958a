#include "shell/shell.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace itdb {
namespace {

std::string RunScript(const std::string& script, Database* db = nullptr) {
  Database local;
  Database& target = db == nullptr ? local : *db;
  std::istringstream in(script);
  std::ostringstream out;
  Status s = RunShell(in, out, target);
  EXPECT_TRUE(s.ok()) << s;
  return out.str();
}

constexpr const char* kDefineP = R"(
define relation P(T: time) {
  [3+10n] : T >= 3;
}
)";

TEST(ShellTest, HelpListsCommands) {
  std::string out = RunScript("help\n");
  EXPECT_NE(out.find("enumerate"), std::string::npos);
  EXPECT_NE(out.find("ask"), std::string::npos);
}

TEST(ShellTest, DefineListShow) {
  std::string out = RunScript(std::string(kDefineP) + "list\nshow P\n");
  EXPECT_NE(out.find("P\n"), std::string::npos);
  EXPECT_NE(out.find("relation P(T: time)"), std::string::npos);
  EXPECT_NE(out.find("3+10n"), std::string::npos);
}

TEST(ShellTest, EnumerateWindow) {
  std::string out = RunScript(std::string(kDefineP) + "enumerate P 0 25\n");
  EXPECT_NE(out.find("(3)"), std::string::npos);
  EXPECT_NE(out.find("(13)"), std::string::npos);
  EXPECT_NE(out.find("(23)"), std::string::npos);
  EXPECT_NE(out.find("3 row(s)"), std::string::npos);
}

TEST(ShellTest, AskAndQuery) {
  std::string out = RunScript(std::string(kDefineP) +
                        "ask EXISTS t . P(t)\n"
                        "ask P(4)\n"
                        "query P(t) AND t <= 20\n");
  EXPECT_NE(out.find("true"), std::string::npos);
  EXPECT_NE(out.find("false"), std::string::npos);
  EXPECT_NE(out.find("relation result"), std::string::npos);
}

TEST(ShellTest, DropRemovesRelation) {
  std::string out = RunScript(std::string(kDefineP) + "drop P\nlist\nshow P\n");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

constexpr const char* kDefineQ = R"(
define relation Q(T: time) {
  [4n];
}
)";

TEST(ShellTest, ExplainPrintsGoldenPlanTree) {
  std::string out = RunScript(std::string(kDefineP) + kDefineQ +
                              "explain EXISTS u . P(t) AND Q(u)\n");
  // Golden: the miniscoped optimizer pushes EXISTS u onto the Q conjunct.
  EXPECT_NE(out.find("query:     EXISTS u . ((P(t) AND Q(u)))"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("optimized: (P(t) AND EXISTS u . (Q(u)))"),
            std::string::npos)
      << out;
  // Analyzer findings print before the plan (severity-ordered; this case
  // has a single cross-product warning).
  EXPECT_NE(out.find("analysis:\n"
                     "warning[A011] at 1:12: conjunction operands share no "
                     "attributes; the join degenerates to a cross product\n"),
            std::string::npos)
      << out;
  // The cost planner annotates every node with its estimates and the
  // abstract interpreter's certified bounds.
  EXPECT_NE(out.find("plan:\n"
                     "AND  (est_rows=1, est_cost=5, cert_rows=1, "
                     "cert_lcm=20)\n"
                     "  ATOM P(t)  (est_rows=1, est_cost=1, cert_rows=1, "
                     "cert_lcm=10)\n"
                     "  EXISTS u  (est_rows=1, est_cost=2, cert_rows=1, "
                     "cert_lcm=4)\n"
                     "    ATOM Q(u)  (est_rows=1, est_cost=1, cert_rows=1, "
                     "cert_lcm=4)\n"),
            std::string::npos)
      << out;
}

TEST(ShellTest, ExplainPrintsAnalyzerFindingsInSeverityOrder) {
  // R/S force one error-free query with findings at every severity: an
  // A012 warning (lcm 10403 > 720) and an A017 note under NOT.
  std::string out = RunScript(
      "define relation R(T: time) {\n  [3+101n];\n}\n"
      "define relation S(T: time) {\n  [4+103n];\n}\n"
      "explain R(t) AND S(t) AND NOT R(t)\n");
  // Golden: warnings strictly before notes, and the block cleanly
  // separated from "plan:".  The lcm is reported once, as A012 (A015, its
  // retired duplicate, is not emitted).
  EXPECT_NE(
      out.find(
          "analysis:\n"
          "warning[A012] at 1:1: the periods reachable from this query "
          "compose to lcm 10403 (threshold 720); normalization may expand "
          "each tuple by that factor\n"
          "note[A017] at 1:1: no finite certificate: the result's "
          "cardinality cannot be bounded statically\n"
          "plan:\n"),
      std::string::npos)
      << out;
  EXPECT_EQ(out.find("A015"), std::string::npos) << out;
  // The unbounded complement surfaces in the annotations too.
  EXPECT_NE(out.find("cert_rows=unbounded"), std::string::npos) << out;
}

TEST(ShellTest, ExplainAcceptsUppercaseAndRejectsParseErrors) {
  std::string out =
      RunScript(std::string(kDefineP) + "EXPLAIN P(t)\nexplain P(\n");
  EXPECT_NE(out.find("ATOM P(t)"), std::string::npos) << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, ProfileReportsPerNodeTimings) {
  std::string out = RunScript(std::string(kDefineP) + kDefineQ +
                              "profile P(t) AND Q(t)\n"
                              "PROFILE P(t) AND Q(t)\n");
  // The root spans the whole query; plan nodes carry times and counters.
  EXPECT_NE(out.find("query (P(t) AND Q(t))"), std::string::npos) << out;
  EXPECT_NE(out.find("ATOM P(t)"), std::string::npos) << out;
  EXPECT_NE(out.find("ATOM Q(t)"), std::string::npos) << out;
  EXPECT_NE(out.find("wall="), std::string::npos) << out;
  EXPECT_NE(out.find("cpu="), std::string::npos) << out;
  EXPECT_NE(out.find("tuples_out="), std::string::npos) << out;
  EXPECT_NE(out.find("pairs_candidate="), std::string::npos) << out;
  EXPECT_NE(out.find("cache_hits="), std::string::npos) << out;
  EXPECT_NE(out.find("generalized tuple(s)"), std::string::npos) << out;
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, ProfileMatchesQueryResult) {
  // PROFILE evaluates the same query `query` does -- same tuple count line.
  std::string script = std::string(kDefineP) +
                       "query P(t) AND t <= 23\n"
                       "profile P(t) AND t <= 23\n";
  std::string out = RunScript(script);
  // Both commands report the same "N generalized tuple(s)" footer.
  std::size_t first = out.find("generalized tuple(s)");
  ASSERT_NE(first, std::string::npos) << out;
  std::size_t second = out.find("generalized tuple(s)", first + 1);
  ASSERT_NE(second, std::string::npos) << out;
  auto count_before = [&out](std::size_t pos) {
    std::size_t line = out.rfind('\n', pos);
    return out.substr(line + 1, pos - line - 1);
  };
  EXPECT_EQ(count_before(first), count_before(second)) << out;
}

TEST(ShellTest, MetricsDumpsRegistry) {
  std::string out =
      RunScript(std::string(kDefineP) + "query P(t)\nmetrics\n");
  EXPECT_NE(out.find("query.evaluations"), std::string::npos) << out;
  EXPECT_NE(out.find("thread_pool.workers"), std::string::npos) << out;
}

TEST(ShellTest, HelpListsObservabilityCommands) {
  std::string out = RunScript("help\n");
  EXPECT_NE(out.find("explain"), std::string::npos);
  EXPECT_NE(out.find("profile"), std::string::npos);
  EXPECT_NE(out.find("metrics"), std::string::npos);
}

TEST(ShellTest, UnknownCommandReportsError) {
  std::string out = RunScript("frobnicate\n");
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(ShellTest, CommentsAndBlankLinesIgnored) {
  std::string out = RunScript("# nothing here\n\n   \nlist\n");
  EXPECT_EQ(out.find("error"), std::string::npos);
}

TEST(ShellTest, QuitStopsProcessing) {
  std::string out = RunScript("quit\nfrobnicate\n");
  EXPECT_EQ(out.find("unknown command"), std::string::npos);
}

TEST(ShellTest, StopOnErrorPropagates) {
  Database db;
  std::istringstream in("show missing\nlist\n");
  std::ostringstream out;
  ShellOptions options;
  options.stop_on_error = true;
  Status s = RunShell(in, out, db, options);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ShellTest, SaveAndLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/shell_roundtrip.itdb";
  RunScript(std::string(kDefineP) + "save " + path + "\n");
  Database db;
  std::string out = RunScript("load " + path + "\nask P(13)\n", &db);
  EXPECT_NE(out.find("true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ShellTest, CheckReportsCaretDiagnostics) {
  // "R" does not exist: A001 at the atom, with the caret under it.
  std::string out = RunScript("check EXISTS t . R(t)\n");
  EXPECT_NE(out.find("error[A001]"), std::string::npos) << out;
  EXPECT_NE(out.find("--> 1:12"), std::string::npos) << out;
  EXPECT_NE(out.find("^"), std::string::npos) << out;
  EXPECT_NE(out.find("check: 1 error(s), 0 warning(s)"), std::string::npos)
      << out;
}

TEST(ShellTest, CheckAcceptsCleanQueryAndFlagsEmptyOnes) {
  std::string out = RunScript(std::string(kDefineP) +
                              "check P(t) AND t <= 20\n"
                              "check P(t) AND t > 5 AND t < 4\n");
  EXPECT_NE(out.find("check: ok"), std::string::npos) << out;
  EXPECT_NE(out.find("warning[A009]"), std::string::npos) << out;
  EXPECT_NE(out.find("statically empty"), std::string::npos) << out;
}

TEST(ShellTest, CheckReportsParseErrorsWithoutFailing) {
  std::string out = RunScript("check P(\nlist\n");
  EXPECT_NE(out.find("error[parse]"), std::string::npos) << out;
  // The shell keeps going: `list` still ran without an "error:" line.
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, CheckAndSatCommands) {
  std::string script = R"(
define relation req(T: time) {
  [10n];
}
define relation ack(T: time) {
  [3+10n];
}
tlcheck G(req -> F[0,5](ack))
tlcheck G(req -> F[0,2](ack))
sat F[0,3](req)
)";
  std::string out = RunScript(script);
  EXPECT_NE(out.find("PASS"), std::string::npos) << out;
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
  EXPECT_NE(out.find("violations"), std::string::npos) << out;
  EXPECT_NE(out.find("relation sat"), std::string::npos) << out;
}

TEST(ShellTest, CoalesceSimplifyWitnessCommands) {
  std::string script = R"(
define relation R(T: time) {
  [6n];
  [3+6n];
  [2+4n];
  [2+4n];
}
coalesce R
simplify R
show R
witness R
)";
  std::string out = RunScript(script);
  // {6n, 3+6n} merge to 3n; the duplicate 2+4n collapses.
  EXPECT_NE(out.find("4 -> 2 tuple(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("0+3n"), std::string::npos) << out;
  // Witness prints some concrete member.
  EXPECT_NE(out.find("("), std::string::npos) << out;
  // Unknown relation errors cleanly.
  std::string err = RunScript("witness nope\n");
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(ShellTest, DefineRejectsDuplicates) {
  std::string out = RunScript(std::string(kDefineP) + kDefineP);
  EXPECT_NE(out.find("already exists"), std::string::npos);
}

TEST(ShellTest, EofMidDefineUnwindsWithoutPartialState) {
  // Ctrl-D (or a dropped pipe) in the middle of a define block: the partial
  // statement is abandoned, the catalog is untouched, and the shell reports
  // the unbalanced braces instead of hanging or half-defining.
  Database db;
  std::istringstream in("define relation X(T: time) {\n  [2n];\n");
  std::ostringstream out;
  Status s = RunShell(in, out, db);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_NE(out.str().find("unbalanced braces in definition"),
            std::string::npos)
      << out.str();
  EXPECT_FALSE(db.Has("X"));
}

TEST(ShellTest, EofMidDefinePropagatesUnderStopOnError) {
  Database db;
  std::istringstream in("define relation X(T: time) {\n");
  std::ostringstream out;
  ShellOptions options;
  options.stop_on_error = true;
  Status s = RunShell(in, out, db, options);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_FALSE(db.Has("X"));
}

TEST(ShellTest, InterruptedBlockThenNewStatementRecovers) {
  // A closing-brace typo ends the block early; the statement fails at the
  // parser but the shell keeps accepting statements afterwards.
  std::string out = RunScript(
      "define relation Y(T: time) {\n  [2n];\n}\nlist\n");
  EXPECT_NE(out.find("Y"), std::string::npos);
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

}  // namespace
}  // namespace itdb
