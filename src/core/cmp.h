// Comparison operators and the restricted-constraint compiler.
//
// Every comparison itdb evaluates -- a selection condition of the algebra,
// a constraint of the relation text format, a comparison of the query
// language -- is one CmpOp between operands of the form `X + a` or `K`.
// This module is the only place that gives the operators their meaning:
// their truth on concrete values (Holds), their flip and negation, their
// spelling, and their translation into the difference atoms of
// core/dbm.h in two steps:
//
//   OrientCmp:   (x + a) op (y + b)  ->  x op y + (b - a)
//                (x + a) op K        ->  x op K - a
//                K op (x + a)        ->  x Flip(op) K - a
//   CompileCmp:  x op y + c  ->  one branch of one or two atoms, or the
//                two branches x <= y + c - 1 | y - x <= -c - 1 for !=.
//
// Both steps report kOverflow when a bound leaves int64; each caller
// applies its own policy to that (fail, skip the comparison, saturate).

#ifndef ITDB_CORE_CMP_H_
#define ITDB_CORE_CMP_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/dbm.h"
#include "util/status.h"

namespace itdb {

/// Comparison operators.  <, <=, >, >= are defined on the temporal sort and
/// on Value's total order; = and != on both sorts.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// The operator with its operands swapped: a op b  <=>  b Flip(op) a.
CmpOp Flip(CmpOp op);

/// The complement: not (a op b)  <=>  a Negate(op) b.
CmpOp Negate(CmpOp op);

/// Whether `a op b` holds, for any totally ordered T (int64, Value).
template <typename T>
bool Holds(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

/// The operator's spelling: "=", "!=", "<", "<=", ">" or ">=".
std::string_view CmpOpSymbol(CmpOp op);

/// The operator spelled `symbol`, or nullopt.
std::optional<CmpOp> CmpOpFromSymbol(std::string_view symbol);

/// A restricted comparison on temporal attributes:
///   X(lhs) op X(rhs) + c        (rhs >= 0)
///   X(lhs) op c                 (rhs == kZeroVar).
/// kNe is the disjunction of kLt and kGt (the paper's splitting rule).
struct TemporalCondition {
  int lhs = 0;
  int rhs = kZeroVar;
  CmpOp op = CmpOp::kEq;
  std::int64_t c = 0;
};

/// One side of a comparison: X(col) + offset, or the constant `offset`
/// when col == kZeroVar.
struct CmpOperand {
  int col = kZeroVar;
  std::int64_t offset = 0;
};

/// Orients `lhs op rhs` into a TemporalCondition: a constant on the left
/// is flipped to the right, and the offsets are subtracted.  Fails with
/// kInvalidArgument when neither side names a column and with kOverflow
/// when the subtraction leaves int64.  Two sides naming the same column
/// are the caller's to reject (see CompileCmp).
Result<TemporalCondition> OrientCmp(CmpOperand lhs, CmpOp op, CmpOperand rhs);

/// The branches of a compiled condition: a disjunction of conjunctions of
/// difference atoms.
using CmpBranches = std::vector<std::vector<AtomicConstraint>>;

/// The difference atoms equivalent to `cond` over the integers: one branch
/// of one atom (<, <=, >, >=) or two atoms (=), or two one-atom branches
/// for kNe.  Fails with kOverflow when c - 1, c + 1 or -c leaves int64.
/// Pre: cond.lhs != kZeroVar and cond.lhs != cond.rhs.
Result<CmpBranches> CompileCmp(const TemporalCondition& cond);

}  // namespace itdb

#endif  // ITDB_CORE_CMP_H_
