#include "core/cmp.h"

#include <utility>

#include "util/numeric.h"

namespace itdb {

CmpOp Flip(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
    case CmpOp::kNe:
      return op;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

CmpOp Negate(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return op;
}

std::string_view CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::optional<CmpOp> CmpOpFromSymbol(std::string_view symbol) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    if (CmpOpSymbol(op) == symbol) return op;
  }
  return std::nullopt;
}

Result<TemporalCondition> OrientCmp(CmpOperand lhs, CmpOp op,
                                    CmpOperand rhs) {
  if (lhs.col == kZeroVar) {
    if (rhs.col == kZeroVar) {
      return Status::InvalidArgument("comparison names no temporal column");
    }
    std::swap(lhs, rhs);
    op = Flip(op);
  }
  // (x + a) op (y + b)  <=>  x op y + (b - a), with y == 0 for a constant.
  ITDB_ASSIGN_OR_RETURN(std::int64_t c, CheckedSub(rhs.offset, lhs.offset));
  return TemporalCondition{lhs.col, rhs.col, op, c};
}

Result<CmpBranches> CompileCmp(const TemporalCondition& cond) {
  // X(lhs) - X(rhs) <= b.
  auto upper = [&cond](std::int64_t b) {
    return AtomicConstraint{cond.lhs, cond.rhs, b};
  };
  // X(lhs) - X(rhs) >= b, i.e. X(rhs) - X(lhs) <= -b.
  auto lower = [&cond](std::int64_t b) -> Result<AtomicConstraint> {
    ITDB_ASSIGN_OR_RETURN(std::int64_t negated, CheckedSub(0, b));
    return AtomicConstraint{cond.rhs, cond.lhs, negated};
  };
  switch (cond.op) {
    case CmpOp::kEq: {
      ITDB_ASSIGN_OR_RETURN(AtomicConstraint at_least, lower(cond.c));
      return CmpBranches{{upper(cond.c), at_least}};
    }
    case CmpOp::kNe: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t below, CheckedSub(cond.c, 1));
      ITDB_ASSIGN_OR_RETURN(std::int64_t above, CheckedAdd(cond.c, 1));
      ITDB_ASSIGN_OR_RETURN(AtomicConstraint at_least, lower(above));
      return CmpBranches{{upper(below)}, {at_least}};
    }
    case CmpOp::kLt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t below, CheckedSub(cond.c, 1));
      return CmpBranches{{upper(below)}};
    }
    case CmpOp::kLe:
      return CmpBranches{{upper(cond.c)}};
    case CmpOp::kGt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t above, CheckedAdd(cond.c, 1));
      ITDB_ASSIGN_OR_RETURN(AtomicConstraint at_least, lower(above));
      return CmpBranches{{at_least}};
    }
    case CmpOp::kGe: {
      ITDB_ASSIGN_OR_RETURN(AtomicConstraint at_least, lower(cond.c));
      return CmpBranches{{at_least}};
    }
  }
  return Status::InvalidArgument("CompileCmp: unknown operator");
}

}  // namespace itdb
