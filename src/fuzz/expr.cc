#include "fuzz/expr.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "storage/lexer.h"

namespace itdb {
namespace fuzz {

namespace {

ExprPtr MakeNode(Expr node) { return std::make_shared<const Expr>(std::move(node)); }

ExprPtr MakeBinary(Expr::Kind kind, ExprPtr a, ExprPtr b) {
  Expr e;
  e.kind = kind;
  e.left = std::move(a);
  e.right = std::move(b);
  return MakeNode(std::move(e));
}

}  // namespace

Result<InjectedBug> ParseInjectedBug(std::string_view name) {
  if (name == "none") return InjectedBug::kNone;
  if (name == "join-drop-constraint") return InjectedBug::kJoinDropConstraint;
  if (name == "union-drop-tuple") return InjectedBug::kUnionDropTuple;
  if (name == "shift-off-by-one") return InjectedBug::kShiftOffByOne;
  return Status::InvalidArgument("unknown injected bug \"" +
                                 std::string(name) + "\"");
}

std::string_view InjectedBugName(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone:
      return "none";
    case InjectedBug::kJoinDropConstraint:
      return "join-drop-constraint";
    case InjectedBug::kUnionDropTuple:
      return "union-drop-tuple";
    case InjectedBug::kShiftOffByOne:
      return "shift-off-by-one";
  }
  return "none";
}

ExprPtr Expr::Leaf(std::string name) {
  Expr e;
  e.kind = Kind::kLeaf;
  e.leaf = std::move(name);
  return MakeNode(std::move(e));
}

ExprPtr Expr::Union(ExprPtr a, ExprPtr b) {
  return MakeBinary(Kind::kUnion, std::move(a), std::move(b));
}
ExprPtr Expr::Intersect(ExprPtr a, ExprPtr b) {
  return MakeBinary(Kind::kIntersect, std::move(a), std::move(b));
}
ExprPtr Expr::Subtract(ExprPtr a, ExprPtr b) {
  return MakeBinary(Kind::kSubtract, std::move(a), std::move(b));
}
ExprPtr Expr::Join(ExprPtr a, ExprPtr b) {
  return MakeBinary(Kind::kJoin, std::move(a), std::move(b));
}

ExprPtr Expr::Complement(ExprPtr a) {
  Expr e;
  e.kind = Kind::kComplement;
  e.left = std::move(a);
  return MakeNode(std::move(e));
}

ExprPtr Expr::Project(ExprPtr a, std::vector<std::string> attrs) {
  Expr e;
  e.kind = Kind::kProject;
  e.left = std::move(a);
  e.attrs = std::move(attrs);
  return MakeNode(std::move(e));
}

ExprPtr Expr::Select(ExprPtr a, TemporalCondition cond) {
  Expr e;
  e.kind = Kind::kSelect;
  e.left = std::move(a);
  e.cond = cond;
  return MakeNode(std::move(e));
}

ExprPtr Expr::SelectData(ExprPtr a, int col, CmpOp op, Value value) {
  Expr e;
  e.kind = Kind::kSelectData;
  e.left = std::move(a);
  e.data_col = col;
  e.data_op = op;
  e.data_value = std::move(value);
  return MakeNode(std::move(e));
}

ExprPtr Expr::Shift(ExprPtr a, int col, std::int64_t delta) {
  Expr e;
  e.kind = Kind::kShift;
  e.left = std::move(a);
  e.shift_col = col;
  e.shift_delta = delta;
  return MakeNode(std::move(e));
}

int Expr::NodeCount() const {
  int n = 1;
  if (left) n += left->NodeCount();
  if (right) n += right->NodeCount();
  return n;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLeaf:
      return leaf;
    case Kind::kUnion:
      return "union(" + left->ToString() + ", " + right->ToString() + ")";
    case Kind::kIntersect:
      return "intersect(" + left->ToString() + ", " + right->ToString() + ")";
    case Kind::kSubtract:
      return "subtract(" + left->ToString() + ", " + right->ToString() + ")";
    case Kind::kJoin:
      return "join(" + left->ToString() + ", " + right->ToString() + ")";
    case Kind::kComplement:
      return "complement(" + left->ToString() + ")";
    case Kind::kProject: {
      std::string out = "project(" + left->ToString() + ", [";
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if (i > 0) out += ", ";
        out += attrs[i];
      }
      return out + "])";
    }
    case Kind::kSelect: {
      std::string out = "select(" + left->ToString() + ", X" +
                        std::to_string(cond.lhs + 1) + " " +
                        std::string(CmpOpSymbol(cond.op)) + " ";
      if (cond.rhs == kZeroVar) {
        out += std::to_string(cond.c);
      } else {
        out += "X" + std::to_string(cond.rhs + 1);
        if (cond.c > 0) out += " + " + std::to_string(cond.c);
        if (cond.c < 0) out += " - " + std::to_string(-cond.c);
      }
      return out + ")";
    }
    case Kind::kSelectData:
      return "selectdata(" + left->ToString() + ", D" +
             std::to_string(data_col + 1) + " " +
             std::string(CmpOpSymbol(data_op)) + " " +
             data_value.ToString() + ")";
    case Kind::kShift:
      return "shift(" + left->ToString() + ", X" +
             std::to_string(shift_col + 1) + ", " +
             std::to_string(shift_delta) + ")";
  }
  return "?";
}

std::vector<std::string> LeafNames(const ExprPtr& e) {
  std::set<std::string> names;
  std::vector<const Expr*> stack = {e.get()};
  while (!stack.empty()) {
    const Expr* n = stack.back();
    stack.pop_back();
    if (n->kind == Expr::Kind::kLeaf) names.insert(n->leaf);
    if (n->left) stack.push_back(n->left.get());
    if (n->right) stack.push_back(n->right.get());
  }
  return {names.begin(), names.end()};
}

// ---------------------------------------------------------------------------
// Evaluation through the generalized algebra.

Result<GeneralizedRelation> EvalExpr(const ExprPtr& e, const Database& db,
                                     const EvalExprOptions& options) {
  switch (e->kind) {
    case Expr::Kind::kLeaf:
      return db.Get(e->leaf);
    case Expr::Kind::kUnion: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation b,
                            EvalExpr(e->right, db, options));
      if (options.bug == InjectedBug::kUnionDropTuple && b.size() > 0) {
        GeneralizedRelation dropped(b.schema());
        for (std::int64_t i = 0; i + 1 < b.size(); ++i) {
          ITDB_RETURN_IF_ERROR(
              dropped.AddTuple(b.tuples()[static_cast<std::size_t>(i)]));
        }
        b = std::move(dropped);
      }
      return ::itdb::Union(a, b, options.algebra);
    }
    case Expr::Kind::kIntersect: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation b,
                            EvalExpr(e->right, db, options));
      return ::itdb::Intersect(a, b, options.algebra);
    }
    case Expr::Kind::kSubtract: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation b,
                            EvalExpr(e->right, db, options));
      return ::itdb::Subtract(a, b, options.algebra);
    }
    case Expr::Kind::kJoin: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation b,
                            EvalExpr(e->right, db, options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation j,
                            ::itdb::Join(a, b, options.algebra));
      if (options.bug == InjectedBug::kJoinDropConstraint) {
        GeneralizedRelation buggy(j.schema());
        for (const GeneralizedTuple& t : j.tuples()) {
          GeneralizedTuple free = t.FreeExtension();
          ITDB_RETURN_IF_ERROR(buggy.AddTuple(std::move(free)));
        }
        return buggy;
      }
      return j;
    }
    case Expr::Kind::kComplement: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      return ::itdb::Complement(a, options.algebra);
    }
    case Expr::Kind::kProject: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      return ::itdb::Project(a, e->attrs, options.algebra);
    }
    case Expr::Kind::kSelect: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      return ::itdb::SelectTemporal(a, e->cond, options.algebra);
    }
    case Expr::Kind::kSelectData: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      return ::itdb::SelectData(a, e->data_col, e->data_op, e->data_value);
    }
    case Expr::Kind::kShift: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation a,
                            EvalExpr(e->left, db, options));
      std::int64_t delta = e->shift_delta;
      if (options.bug == InjectedBug::kShiftOffByOne) delta += 1;
      return ::itdb::ShiftTemporalColumn(a, e->shift_col, delta);
    }
  }
  return Status::InvalidArgument("EvalExpr: corrupt expression node");
}

// ---------------------------------------------------------------------------
// Evaluation through the finite baseline.

namespace {

/// Witness-distance slack for projection (see FiniteEval in the header).
/// A projected row is only trusted this far from the child's window edge:
/// if the true extension contains a row there, some witness for it lies
/// within the child window, because generated constraint bounds, periods
/// and shift deltas are all far smaller than this.
constexpr std::int64_t kProjectWitnessSlack = 16;

Status CheckRows(const FiniteRelation& r, std::int64_t max_rows,
                 const char* what) {
  if (r.size() > max_rows) {
    return Status::ResourceExhausted(
        std::string("EvalExprFinite: ") + what + " exceeds " +
        std::to_string(max_rows) + " rows");
  }
  return Status::Ok();
}

/// Drops rows with any temporal coordinate outside [vlo, vhi] -- the
/// possibly-garbage boundary rows a window-tracked operand may carry.
FiniteRelation DropOutsideWindow(const FiniteRelation& r, std::int64_t vlo,
                                 std::int64_t vhi) {
  FiniteRelation out(r.schema());
  for (const ConcreteRow& row : r.rows()) {
    bool inside = true;
    for (std::int64_t t : row.temporal) {
      if (t < vlo || t > vhi) {
        inside = false;
        break;
      }
    }
    if (inside) (void)out.AddRow(row);
  }
  return out;
}

FiniteEval Windowed(FiniteRelation rel, std::int64_t vlo, std::int64_t vhi) {
  return FiniteEval{std::move(rel), vlo, vhi};
}

/// Combines two operands' windows for a pointwise operation (membership of
/// a row depends only on that row's membership in each operand).
void MeetWindows(const FiniteEval& a, const FiniteEval& b, std::int64_t* vlo,
                 std::int64_t* vhi) {
  *vlo = std::max(a.valid_lo, b.valid_lo);
  *vhi = std::min(a.valid_hi, b.valid_hi);
}

}  // namespace

Result<FiniteEval> EvalExprFinite(const ExprPtr& e, const Database& db,
                                  std::int64_t lo, std::int64_t hi,
                                  std::int64_t max_rows) {
  Result<FiniteEval> out = [&]() -> Result<FiniteEval> {
    switch (e->kind) {
      case Expr::Kind::kLeaf: {
        ITDB_ASSIGN_OR_RETURN(GeneralizedRelation r, db.Get(e->leaf));
        return Windowed(FiniteRelation::Materialize(r, lo, hi), lo, hi);
      }
      case Expr::Kind::kUnion: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(FiniteEval b,
                              EvalExprFinite(e->right, db, lo, hi, max_rows));
        std::int64_t vlo, vhi;
        MeetWindows(a, b, &vlo, &vhi);
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r,
                              FiniteRelation::Union(a.rel, b.rel));
        return Windowed(std::move(r), vlo, vhi);
      }
      case Expr::Kind::kIntersect: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(FiniteEval b,
                              EvalExprFinite(e->right, db, lo, hi, max_rows));
        std::int64_t vlo, vhi;
        MeetWindows(a, b, &vlo, &vhi);
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r,
                              FiniteRelation::Intersect(a.rel, b.rel));
        return Windowed(std::move(r), vlo, vhi);
      }
      case Expr::Kind::kSubtract: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(FiniteEval b,
                              EvalExprFinite(e->right, db, lo, hi, max_rows));
        std::int64_t vlo, vhi;
        MeetWindows(a, b, &vlo, &vhi);
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r,
                              FiniteRelation::Subtract(a.rel, b.rel));
        return Windowed(std::move(r), vlo, vhi);
      }
      case Expr::Kind::kJoin: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(FiniteEval b,
                              EvalExprFinite(e->right, db, lo, hi, max_rows));
        // The nested-loop baseline join is quadratic; bound the work, not
        // just the output.
        if (a.rel.size() > 0 && b.rel.size() > max_rows / a.rel.size()) {
          return Status::ResourceExhausted(
              "EvalExprFinite: join operand product exceeds " +
              std::to_string(max_rows));
        }
        std::int64_t vlo, vhi;
        MeetWindows(a, b, &vlo, &vhi);
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r,
                              FiniteRelation::Join(a.rel, b.rel));
        return Windowed(std::move(r), vlo, vhi);
      }
      case Expr::Kind::kComplement: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        if (a.rel.schema().data_arity() > 0) {
          return Status::Unimplemented(
              "EvalExprFinite: complement over data attributes");
        }
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r, a.rel.Complement(lo, hi, {}));
        return Windowed(std::move(r), a.valid_lo, a.valid_hi);
      }
      case Expr::Kind::kProject: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        // Garbage rows outside the child's window would act as spurious
        // projection witnesses; drop them before projecting.
        FiniteRelation trusted =
            DropOutsideWindow(a.rel, a.valid_lo, a.valid_hi);
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r, trusted.Project(e->attrs));
        return Windowed(std::move(r), a.valid_lo + kProjectWitnessSlack,
                        a.valid_hi - kProjectWitnessSlack);
      }
      case Expr::Kind::kSelect: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(FiniteRelation r,
                              a.rel.SelectTemporal(e->cond));
        return Windowed(std::move(r), a.valid_lo, a.valid_hi);
      }
      case Expr::Kind::kSelectData: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(
            FiniteRelation r,
            a.rel.SelectData(e->data_col, e->data_op, e->data_value));
        return Windowed(std::move(r), a.valid_lo, a.valid_hi);
      }
      case Expr::Kind::kShift: {
        ITDB_ASSIGN_OR_RETURN(FiniteEval a,
                              EvalExprFinite(e->left, db, lo, hi, max_rows));
        ITDB_ASSIGN_OR_RETURN(
            FiniteRelation r,
            a.rel.ShiftTemporalColumn(e->shift_col, e->shift_delta));
        // The shifted column is exact on the translated window, the other
        // columns on the original one; meet conservatively.
        return Windowed(std::move(r),
                        a.valid_lo + std::max<std::int64_t>(e->shift_delta, 0),
                        a.valid_hi + std::min<std::int64_t>(e->shift_delta, 0));
      }
    }
    return Status::InvalidArgument("EvalExprFinite: corrupt expression node");
  }();
  if (!out.ok()) return out;
  ITDB_RETURN_IF_ERROR(CheckRows(out.value().rel, max_rows, "intermediate"));
  return out;
}

// ---------------------------------------------------------------------------
// Schema inference.

Result<Schema> InferSchema(const ExprPtr& e, const Database& db) {
  switch (e->kind) {
    case Expr::Kind::kLeaf: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation r, db.Get(e->leaf));
      return r.schema();
    }
    case Expr::Kind::kUnion:
    case Expr::Kind::kIntersect:
    case Expr::Kind::kSubtract: {
      ITDB_ASSIGN_OR_RETURN(Schema a, InferSchema(e->left, db));
      ITDB_ASSIGN_OR_RETURN(Schema b, InferSchema(e->right, db));
      if (a != b) {
        return Status::InvalidArgument("InferSchema: operand schema mismatch");
      }
      return a;
    }
    case Expr::Kind::kJoin: {
      // Mirrors the algebra's Join: a's attributes, then b's new ones.
      ITDB_ASSIGN_OR_RETURN(Schema a, InferSchema(e->left, db));
      ITDB_ASSIGN_OR_RETURN(Schema b, InferSchema(e->right, db));
      std::vector<std::string> temporal = a.temporal_names();
      for (const std::string& n : b.temporal_names()) {
        if (!a.FindTemporal(n).has_value()) temporal.push_back(n);
      }
      std::vector<std::string> data = a.data_names();
      std::vector<DataType> types = a.data_types();
      for (int j = 0; j < b.data_arity(); ++j) {
        if (!a.FindData(b.data_name(j)).has_value()) {
          data.push_back(b.data_name(j));
          types.push_back(b.data_type(j));
        }
      }
      return Schema(std::move(temporal), std::move(data), std::move(types));
    }
    case Expr::Kind::kComplement:
    case Expr::Kind::kSelect:
    case Expr::Kind::kSelectData:
    case Expr::Kind::kShift:
      return InferSchema(e->left, db);
    case Expr::Kind::kProject: {
      ITDB_ASSIGN_OR_RETURN(Schema a, InferSchema(e->left, db));
      std::vector<std::string> temporal;
      std::vector<std::string> data;
      std::vector<DataType> types;
      for (const std::string& n : e->attrs) {
        if (a.FindTemporal(n).has_value()) {
          temporal.push_back(n);
        } else if (std::optional<int> d = a.FindData(n)) {
          data.push_back(n);
          types.push_back(a.data_type(*d));
        } else {
          return Status::NotFound("InferSchema: unknown attribute \"" + n +
                                  "\"");
        }
      }
      return Schema(std::move(temporal), std::move(data), std::move(types));
    }
  }
  return Status::InvalidArgument("InferSchema: corrupt expression node");
}

// ---------------------------------------------------------------------------
// Parsing.

namespace {

/// Parses "X<k>" (1-based) into a 0-based column index.
Result<int> ParseColumnRef(TokenStream& ts, char prefix) {
  ITDB_ASSIGN_OR_RETURN(std::string name, ts.ExpectIdent());
  if (name.size() < 2 || name[0] != prefix) {
    return ts.ErrorHere(std::string("expected ") + prefix +
                        "<k> column reference");
  }
  int idx = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return ts.ErrorHere("bad column reference \"" + name + "\"");
    }
    idx = idx * 10 + (name[i] - '0');
  }
  if (idx < 1) return ts.ErrorHere("column references are 1-based");
  return idx - 1;
}

Result<CmpOp> ParseCmpOp(TokenStream& ts) {
  std::optional<CmpOp> op = ts.TryCmpOp();
  if (!op.has_value()) return ts.ErrorHere("expected comparison operator");
  return *op;
}

Result<ExprPtr> ParseExprNode(TokenStream& ts) {
  ITDB_ASSIGN_OR_RETURN(std::string head, ts.ExpectIdent());
  // A leaf is any identifier not followed by '('.
  if (!(ts.Peek().kind == TokenKind::kSymbol && ts.Peek().text == "(")) {
    return Expr::Leaf(std::move(head));
  }
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("("));
  auto binary = [&](ExprPtr (*make)(ExprPtr, ExprPtr)) -> Result<ExprPtr> {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(ExprPtr b, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return make(std::move(a), std::move(b));
  };
  if (head == "union") return binary(&Expr::Union);
  if (head == "intersect") return binary(&Expr::Intersect);
  if (head == "subtract") return binary(&Expr::Subtract);
  if (head == "join") return binary(&Expr::Join);
  if (head == "complement") {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return Expr::Complement(std::move(a));
  }
  if (head == "project") {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("["));
    std::vector<std::string> attrs;
    if (!ts.TrySymbol("]")) {
      do {
        ITDB_ASSIGN_OR_RETURN(std::string attr, ts.ExpectIdent());
        attrs.push_back(std::move(attr));
      } while (ts.TrySymbol(","));
      ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("]"));
    }
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return Expr::Project(std::move(a), std::move(attrs));
  }
  if (head == "select") {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    TemporalCondition cond;
    ITDB_ASSIGN_OR_RETURN(cond.lhs, ParseColumnRef(ts, 'X'));
    ITDB_ASSIGN_OR_RETURN(cond.op, ParseCmpOp(ts));
    if (ts.Peek().kind == TokenKind::kIdent) {
      ITDB_ASSIGN_OR_RETURN(cond.rhs, ParseColumnRef(ts, 'X'));
      if (ts.TrySymbol("+")) {
        ITDB_ASSIGN_OR_RETURN(cond.c, ts.ExpectInt());
      } else if (ts.TrySymbol("-")) {
        ITDB_ASSIGN_OR_RETURN(std::int64_t c, ts.ExpectInt());
        cond.c = -c;
      }
    } else {
      cond.rhs = kZeroVar;
      ITDB_ASSIGN_OR_RETURN(cond.c, ts.ExpectInt());
    }
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return Expr::Select(std::move(a), cond);
  }
  if (head == "selectdata") {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(int col, ParseColumnRef(ts, 'D'));
    ITDB_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp(ts));
    Value value;
    if (ts.Peek().kind == TokenKind::kString) {
      value = Value(ts.Next().text);
    } else {
      ITDB_ASSIGN_OR_RETURN(std::int64_t v, ts.ExpectInt());
      value = Value(v);
    }
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return Expr::SelectData(std::move(a), col, op, std::move(value));
  }
  if (head == "shift") {
    ITDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExprNode(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(int col, ParseColumnRef(ts, 'X'));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(std::int64_t delta, ts.ExpectInt());
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return Expr::Shift(std::move(a), col, delta);
  }
  return ts.ErrorHere("unknown operator \"" + head + "\"");
}

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view text) {
  ITDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  ITDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExprNode(ts));
  if (!ts.AtEnd()) return ts.ErrorHere("trailing input after expression");
  return e;
}

}  // namespace fuzz
}  // namespace itdb
