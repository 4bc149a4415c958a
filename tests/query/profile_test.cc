#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "query/eval.h"
#include "query/parser.h"
#include "storage/text_format.h"

namespace itdb {
namespace query {
namespace {

/// A database whose atoms produce multi-tuple relations, so the AND nodes
/// drive real Join work (candidate pairs, prefilter pruning, closures).
Database JoinHeavyDb() {
  std::string text = R"(
    relation P(T: time) {
      [1+6n] : T >= 1;
      [2+10n] : T >= 2;
      [3+15n] : T >= 3;
      [4+21n];
    }
    relation Q(T: time) {
      [1+4n];
      [2+6n] : T <= 1000;
      [3+9n];
      [5+14n] : T >= 5;
    }
    relation R(A: time, B: time) {
      [2n, 3n] : A <= B + 10;
      [1+2n, 1+5n] : A >= -100;
      [7n, 2+7n];
    }
  )";
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// EXISTS u projects a column that needs normalization (period > 1, bound
// to t by an inequality, not pinned), so the normalize cache does work.
constexpr const char* kJoinQuery =
    "EXISTS u . (P(t) AND Q(t) AND R(t, u) AND Q(u))";

std::int64_t SumMetric(const obs::ProfileNode& node, std::string_view name) {
  std::int64_t total = node.Metric(name);
  for (const obs::ProfileNode& child : node.children) {
    total += SumMetric(child, name);
  }
  return total;
}

int CountNodes(const obs::ProfileNode& node) {
  int n = 1;
  for (const obs::ProfileNode& child : node.children) n += CountNodes(child);
  return n;
}

TEST(ProfileTest, JoinHeavyQueryReportsPerNodeMetrics) {
  Database db = JoinHeavyDb();
  Result<ProfiledResult> profiled = EvalQueryStringProfiled(db, kJoinQuery);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  const obs::Profile& profile = profiled->profile;
  ASSERT_FALSE(profile.empty());

  // The root is the whole-query span; the plan tree hangs beneath it.
  EXPECT_EQ(profile.root.label.rfind("query ", 0), 0u) << profile.root.label;
  EXPECT_GT(profile.total_wall_ns, 0);
  EXPECT_GT(CountNodes(profile.root), 4);  // Root + AND nodes + leaves.

  // Every plan node reports wall time and its result size.
  EXPECT_EQ(profile.root.Metric("tuples_out"),
            static_cast<std::int64_t>(profiled->relation.size()));
  for (const obs::ProfileNode& child : profile.root.children) {
    EXPECT_GE(child.wall_ns, 0);
    EXPECT_GE(child.Metric("tuples_out", -1), 0) << child.label;
  }

  // The joins visited candidate pairs and the prefilters / cache did work.
  EXPECT_GT(SumMetric(profile.root, "pairs_candidate"), 0);
  EXPECT_GT(SumMetric(profile.root, "pairs_pruned_residue") +
                SumMetric(profile.root, "pairs_pruned_hull"),
            0);
  EXPECT_GT(SumMetric(profile.root, "cache_hits"), 0);
  EXPECT_GT(SumMetric(profile.root, "cache_misses"), 0);

  // Inclusive times: every node covers its children, and the top plan node
  // accounts for (almost) all of the root's wall time -- the work between
  // the two spans is a label + two counter snapshots.
  std::int64_t child_sum = 0;
  for (const obs::ProfileNode& child : profile.root.children) {
    EXPECT_LE(child.wall_ns, profile.root.wall_ns);
    child_sum += child.wall_ns;
  }
  EXPECT_LE(child_sum, profile.root.wall_ns);
  EXPECT_GE(child_sum, profile.root.wall_ns -
                           std::max<std::int64_t>(profile.root.wall_ns / 10,
                                                  2000000));

  // The rendered profile carries the headline fields.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("tuples_out="), std::string::npos);
  EXPECT_NE(text.find("pairs_candidate="), std::string::npos);
}

TEST(ProfileTest, TracingChangesNoResultBit) {
  Database db = JoinHeavyDb();
  QueryOptions plain;
  Result<GeneralizedRelation> baseline = EvalQueryString(db, kJoinQuery, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string expect = PrintRelation("r", baseline.value());

  for (int threads : {1, 4}) {
    QueryOptions options;
    options.algebra.threads = threads;
    options.algebra.normalize.threads = threads;
    // Traced, untraced, and profiled evaluation must agree bit for bit.
    Result<GeneralizedRelation> untraced =
        EvalQueryString(db, kJoinQuery, options);
    ASSERT_TRUE(untraced.ok()) << untraced.status();
    EXPECT_EQ(PrintRelation("r", untraced.value()), expect)
        << "untraced, threads=" << threads;

    Result<ProfiledResult> profiled =
        EvalQueryStringProfiled(db, kJoinQuery, options);
    ASSERT_TRUE(profiled.ok()) << profiled.status();
    EXPECT_EQ(PrintRelation("r", profiled->relation), expect)
        << "profiled, threads=" << threads;

    options.trace = true;
    obs::Tracer tracer;
    options.tracer = &tracer;
    Result<GeneralizedRelation> traced =
        EvalQueryString(db, kJoinQuery, options);
    ASSERT_TRUE(traced.ok()) << traced.status();
    EXPECT_EQ(PrintRelation("r", traced.value()), expect)
        << "traced, threads=" << threads;
    EXPECT_GT(tracer.size(), 0u);
  }
}

TEST(ProfileTest, ExplicitTracerEmitsValidChromeTrace) {
  Database db = JoinHeavyDb();
  QueryOptions options;
  options.trace = true;
  obs::Tracer tracer;
  options.tracer = &tracer;
  Result<GeneralizedRelation> result = EvalQueryString(db, kJoinQuery, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(tracer.size(), 0u);
  // Plan spans and algebra spans share the tracer.
  bool saw_plan = false;
  bool saw_algebra = false;
  for (const obs::SpanRecord& s : tracer.records()) {
    saw_plan |= s.category == "plan";
    saw_algebra |= s.category == "algebra";
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_algebra);
  Status valid = obs::ValidateChromeTrace(tracer.ToChromeTraceJson());
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(ProfileTest, UntracedEvalOpensNoSpans) {
  Database db = JoinHeavyDb();
  obs::Tracer tracer;
  QueryOptions options;
  options.tracer = &tracer;  // Present but trace == false: ignored.
  Result<GeneralizedRelation> result = EvalQueryString(db, kJoinQuery, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(FormatQueryPlanTest, RendersTheTreeExplainPrints) {
  Result<QueryPtr> q =
      ParseQuery("(EXISTS t . (P(t) AND NOT Q(t))) OR P(0)");
  ASSERT_TRUE(q.ok()) << q.status();
  std::string plan = FormatQueryPlan(q.value());
  EXPECT_EQ(plan,
            "OR\n"
            "  EXISTS t\n"
            "    AND\n"
            "      ATOM P(t)\n"
            "      NOT\n"
            "        ATOM Q(t)\n"
            "  ATOM P(0)\n");
}

}  // namespace
}  // namespace query
}  // namespace itdb
