#include "core/cmp.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/value.h"

namespace itdb {
namespace {

constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// The operators' meaning, written independently of the module.
struct Reference {
  CmpOp op;
  std::function<bool(std::int64_t, std::int64_t)> holds;
  std::string symbol;
};

const std::vector<Reference>& References() {
  static const std::vector<Reference> refs = {
      {CmpOp::kEq, std::equal_to<std::int64_t>(), "="},
      {CmpOp::kNe, std::not_equal_to<std::int64_t>(), "!="},
      {CmpOp::kLt, std::less<std::int64_t>(), "<"},
      {CmpOp::kLe, std::less_equal<std::int64_t>(), "<="},
      {CmpOp::kGt, std::greater<std::int64_t>(), ">"},
      {CmpOp::kGe, std::greater_equal<std::int64_t>(), ">="},
  };
  return refs;
}

TEST(CmpTest, HoldsMatchesTheReference) {
  for (const Reference& ref : References()) {
    for (std::int64_t a = -3; a <= 3; ++a) {
      for (std::int64_t b = -3; b <= 3; ++b) {
        EXPECT_EQ(Holds(a, ref.op, b), ref.holds(a, b))
            << a << " " << ref.symbol << " " << b;
        EXPECT_EQ(Holds(Value(a), ref.op, Value(b)), ref.holds(a, b))
            << a << " " << ref.symbol << " " << b;
      }
    }
  }
  EXPECT_TRUE(Holds(Value("a"), CmpOp::kLt, Value("b")));
  EXPECT_TRUE(Holds(Value("a"), CmpOp::kNe, Value("b")));
  EXPECT_FALSE(Holds(Value("a"), CmpOp::kEq, Value("b")));
}

TEST(CmpTest, FlipAndNegateAreInvolutionsThatAgreeWithHolds) {
  for (CmpOp op : kOps) {
    EXPECT_EQ(Flip(Flip(op)), op);
    EXPECT_EQ(Negate(Negate(op)), op);
    for (std::int64_t a = -3; a <= 3; ++a) {
      for (std::int64_t b = -3; b <= 3; ++b) {
        EXPECT_EQ(Holds(a, Flip(op), b), Holds(b, op, a));
        EXPECT_EQ(Holds(a, Negate(op), b), !Holds(a, op, b));
      }
    }
  }
}

TEST(CmpTest, SymbolsRoundTrip) {
  for (const Reference& ref : References()) {
    EXPECT_EQ(CmpOpSymbol(ref.op), ref.symbol);
    EXPECT_EQ(CmpOpFromSymbol(ref.symbol), ref.op);
  }
  EXPECT_EQ(CmpOpFromSymbol("=="), std::nullopt);
  EXPECT_EQ(CmpOpFromSymbol("<>"), std::nullopt);
  EXPECT_EQ(CmpOpFromSymbol(""), std::nullopt);
}

// Whether x (indexed by column, kZeroVar reading 0) satisfies the
// disjunction of conjunctions `branches`.
bool Accepts(const CmpBranches& branches, const std::vector<std::int64_t>& x) {
  auto at = [&x](int col) {
    return col == kZeroVar ? 0 : x[static_cast<std::size_t>(col)];
  };
  for (const std::vector<AtomicConstraint>& branch : branches) {
    bool all = true;
    for (const AtomicConstraint& a : branch) {
      all = all && at(a.lhs) - at(a.rhs) <= a.bound;
    }
    if (all) return true;
  }
  return false;
}

TEST(CmpTest, CompiledAtomsAcceptExactlyWhatHolds) {
  for (CmpOp op : kOps) {
    for (std::int64_t c = -3; c <= 3; ++c) {
      for (int rhs : {1, kZeroVar}) {
        const TemporalCondition cond{0, rhs, op, c};
        Result<CmpBranches> branches = CompileCmp(cond);
        ASSERT_TRUE(branches.ok()) << branches.status();
        EXPECT_EQ(branches->size(), op == CmpOp::kNe ? 2u : 1u);
        for (const std::vector<AtomicConstraint>& branch : *branches) {
          EXPECT_EQ(branch.size(), op == CmpOp::kEq ? 2u : 1u);
        }
        for (std::int64_t x = -6; x <= 6; ++x) {
          for (std::int64_t y = -6; y <= 6; ++y) {
            const std::int64_t right = rhs == kZeroVar ? c : y + c;
            EXPECT_EQ(Accepts(*branches, {x, y}), Holds(x, op, right))
                << "X " << CmpOpSymbol(op) << " rhs " << rhs << " c " << c
                << " at (" << x << ", " << y << ")";
          }
        }
      }
    }
  }
}

TEST(CmpTest, OrientedComparisonsKeepTheirMeaning) {
  // Column 0 is x, column 1 is y; each shape is checked point by point.
  for (CmpOp op : kOps) {
    for (std::int64_t a = -3; a <= 3; ++a) {
      for (std::int64_t b = -3; b <= 3; ++b) {
        struct Shape {
          CmpOperand lhs, rhs;
        };
        for (const Shape& s : {Shape{{0, a}, {1, b}}, Shape{{1, a}, {0, b}},
                               Shape{{0, a}, {kZeroVar, b}},
                               Shape{{kZeroVar, a}, {0, b}}}) {
          Result<TemporalCondition> cond = OrientCmp(s.lhs, op, s.rhs);
          ASSERT_TRUE(cond.ok()) << cond.status();
          EXPECT_NE(cond->lhs, kZeroVar);
          Result<CmpBranches> branches = CompileCmp(*cond);
          ASSERT_TRUE(branches.ok()) << branches.status();
          for (std::int64_t x = -4; x <= 4; ++x) {
            for (std::int64_t y = -4; y <= 4; ++y) {
              auto side = [&](const CmpOperand& o) {
                return (o.col == 0 ? x : o.col == 1 ? y : 0) + o.offset;
              };
              EXPECT_EQ(Accepts(*branches, {x, y}),
                        Holds(side(s.lhs), op, side(s.rhs)));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(OrientCmp({kZeroVar, 1}, CmpOp::kLe, {kZeroVar, 2}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CmpTest, OverflowAtTheInt64Edges) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  auto code = [](CmpOp op, std::int64_t c) {
    Result<CmpBranches> r = CompileCmp(TemporalCondition{0, kZeroVar, op, c});
    return r.ok() ? StatusCode::kOk : r.status().code();
  };
  // c - 1 below int64.
  EXPECT_EQ(code(CmpOp::kLt, kMin), StatusCode::kOverflow);
  EXPECT_EQ(code(CmpOp::kNe, kMin), StatusCode::kOverflow);
  // c + 1 above int64.
  EXPECT_EQ(code(CmpOp::kGt, kMax), StatusCode::kOverflow);
  EXPECT_EQ(code(CmpOp::kNe, kMax), StatusCode::kOverflow);
  // -c above int64.
  EXPECT_EQ(code(CmpOp::kGe, kMin), StatusCode::kOverflow);
  EXPECT_EQ(code(CmpOp::kEq, kMin), StatusCode::kOverflow);
  // Representable bounds compile.
  EXPECT_EQ(code(CmpOp::kLe, kMin), StatusCode::kOk);
  EXPECT_EQ(code(CmpOp::kLe, kMax), StatusCode::kOk);
  EXPECT_EQ(code(CmpOp::kLt, kMax), StatusCode::kOk);
  EXPECT_EQ(code(CmpOp::kGe, kMax), StatusCode::kOk);
  EXPECT_EQ(code(CmpOp::kEq, kMax), StatusCode::kOk);
  EXPECT_EQ(code(CmpOp::kGt, kMin + 1), StatusCode::kOk);
  // The orientation's subtraction b - a.
  EXPECT_EQ(OrientCmp({0, 1}, CmpOp::kLe, {kZeroVar, kMin}).status().code(),
            StatusCode::kOverflow);
  EXPECT_EQ(OrientCmp({kZeroVar, kMax}, CmpOp::kLe, {0, -1}).status().code(),
            StatusCode::kOverflow);
}

}  // namespace
}  // namespace itdb
