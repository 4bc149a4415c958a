// End-to-end integration: text format -> algebra -> queries -> temporal
// logic -> coalescing -> save/reload, all on one scenario, checking
// cross-layer consistency at every step.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/coalesce.h"
#include "finite/finite_relation.h"
#include "query/eval.h"
#include "shell/shell.h"
#include "storage/database.h"
#include "tl/ltl.h"
#include "tl/parser.h"

namespace itdb {
namespace {

constexpr const char* kFactory = R"(
relation Shift(S: time, E: time, Team: string) {
  [24n, 8+24n   | "day"]   : S = E - 8;
  [8+24n, 16+24n | "late"] : S = E - 8;
  [16+24n, 24+24n | "night"] : S = E - 8;
}
relation Inspection(T: time) {
  [20+48n];
}
)";

TEST(EndToEndTest, FactoryScenario) {
  // 1. Load from the text format.
  Result<Database> parsed = Database::FromText(kFactory);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Database db = std::move(parsed).value();

  // 2. The shifts tile the timeline: FO query over all of Z.
  Result<bool> covered = query::EvalBooleanQueryString(
      db, "FORALL t . EXISTS s . EXISTS e . EXISTS w . "
          "Shift(s, e, w) AND s <= t AND t < e");
  ASSERT_TRUE(covered.ok()) << covered.status();
  EXPECT_TRUE(covered.value());

  // 3. Inspections always land inside the night shift (20 mod 24 is in
  // [16, 24)); verify via query AND temporal logic, then check agreement.
  Result<bool> in_night = query::EvalBooleanQueryString(
      db, "FORALL t . Inspection(t) -> (EXISTS s . EXISTS e . "
          "Shift(s, e, \"night\") AND s <= t AND t < e)");
  ASSERT_TRUE(in_night.ok());
  EXPECT_TRUE(in_night.value());

  // 4. Temporal logic on derived unary relations: project shift starts.
  Result<GeneralizedRelation> night_starts = query::EvalQueryString(
      db, "EXISTS e . Shift(t, e, \"night\")");
  ASSERT_TRUE(night_starts.ok());
  Result<GeneralizedRelation> renamed =
      Rename(night_starts.value(), {{"t", "T"}});
  ASSERT_TRUE(renamed.ok());
  db.Put("night_start", renamed.value());
  Result<tl::TlPtr> spec = tl::ParseTlFormula(
      "G(inspection -> O(night_start))");
  // The relation names in the TL layer are database names; register the
  // inspection relation under the lowercase name used in the formula.
  Result<GeneralizedRelation> inspection = db.Get("Inspection");
  ASSERT_TRUE(inspection.ok());
  db.Put("inspection", inspection.value());
  ASSERT_TRUE(spec.ok()) << spec.status();
  Result<bool> spec_holds = tl::HoldsEverywhere(db, spec.value());
  ASSERT_TRUE(spec_holds.ok()) << spec_holds.status();
  EXPECT_TRUE(spec_holds.value());

  // 5. Allen reasoning as a query: some inspection's unit interval
  // [t, t+1] lies DURING a night shift (s < t and t + 1 < e).
  Result<bool> some_during = query::EvalBooleanQueryString(
      db, "EXISTS t . EXISTS s . EXISTS e . Inspection(t) AND "
          "Shift(s, e, \"night\") AND s < t AND t + 1 < e");
  ASSERT_TRUE(some_during.ok()) << some_during.status();
  EXPECT_TRUE(some_during.value());

  // 6. Complement + coalesce: the uncovered instants of the day shift.
  Result<GeneralizedRelation> day_cover = query::EvalQueryString(
      db, "EXISTS s . EXISTS e . Shift(s, e, \"day\") AND s <= t AND t < e");
  ASSERT_TRUE(day_cover.ok());
  Result<GeneralizedRelation> complement = Complement(day_cover.value());
  ASSERT_TRUE(complement.ok());
  Result<GeneralizedRelation> gaps = CoalesceResidues(complement.value());
  ASSERT_TRUE(gaps.ok());
  // Day shift covers [0, 8) of every 24: the gap is 16 residues of period
  // 24.  Residue coalescing pairs 8 of them into period-12 classes (the
  // merge optimum for an interval-shaped gap), leaving 12 tuples.
  EXPECT_LT(gaps.value().size(), 16);
  EXPECT_EQ(gaps.value().size(), 12);
  FiniteRelation gap_window =
      FiniteRelation::Materialize(gaps.value(), 0, 23);
  EXPECT_EQ(gap_window.size(), 16);

  // 7. Round-trip the whole catalog through the text format.
  std::string text = db.ToText();
  Result<Database> again = Database::FromText(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  for (const std::string& name : db.Names()) {
    Result<GeneralizedRelation> a = db.Get(name);
    Result<GeneralizedRelation> b = again.value().Get(name);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    Result<bool> same = Equivalent(a.value(), b.value());
    ASSERT_TRUE(same.ok()) << name;
    EXPECT_TRUE(same.value()) << name;
  }

  // 8. Drive the same scenario through the shell.
  std::string path = ::testing::TempDir() + "/factory.itdb";
  {
    std::ofstream file(path);
    file << kFactory;
  }
  std::istringstream script(
      "load " + path +
      "\n"
      "ask FORALL t . EXISTS s . EXISTS e . EXISTS w . Shift(s, e, w) AND "
      "s <= t AND t < e\n"
      "witness Shift\n");
  std::ostringstream out;
  Database shell_db;
  Status shell_status = RunShell(script, out, shell_db);
  EXPECT_TRUE(shell_status.ok());
  EXPECT_NE(out.str().find("true"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("(" ), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace itdb
