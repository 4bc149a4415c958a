#include "storage/text_format.h"

#include <cctype>
#include <optional>
#include <utility>
#include <vector>

#include "core/cmp.h"
#include "storage/lexer.h"

namespace itdb {

namespace {

bool IsLrpVariable(const Token& t) {
  // Any identifier starting with 'n' whose remainder is digits: n, n1, n2...
  if (t.kind != TokenKind::kIdent || t.text.empty() || t.text[0] != 'n') {
    return false;
  }
  for (std::size_t i = 1; i < t.text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(t.text[i]))) return false;
  }
  return true;
}

Result<Lrp> ParseLrp(TokenStream& ts) {
  if (IsLrpVariable(ts.Peek())) {  // "n" == 0 + 1n.
    ts.Next();
    return Lrp::Make(0, 1);
  }
  ITDB_ASSIGN_OR_RETURN(std::int64_t first, ts.ExpectInt());
  if (IsLrpVariable(ts.Peek())) {  // "10n" == 0 + 10n.
    ts.Next();
    return Lrp::Make(0, first);
  }
  // "c + kn" / "c - kn", but '+'/'-' may instead belong to the next token
  // stream element only inside constraint context; inside an lrp list the
  // only continuation is the period term.
  if ((ts.Peek().kind == TokenKind::kSymbol &&
       (ts.Peek().text == "+" || ts.Peek().text == "-")) &&
      ts.Peek(1).kind == TokenKind::kInt && IsLrpVariable(ts.Peek(2))) {
    bool negative = ts.Next().text == "-";
    std::int64_t k = ts.Next().int_value;
    ts.Next();  // The variable.
    return Lrp::Make(first, negative ? -k : k);
  }
  return Lrp::Singleton(first);
}

Result<Value> ParseValue(TokenStream& ts, DataType expected) {
  if (ts.Peek().kind == TokenKind::kString) {
    if (expected != DataType::kString) {
      return ts.ErrorHere("expected an integer value");
    }
    return Value(ts.Next().text);
  }
  if (expected != DataType::kInt) {
    return ts.ErrorHere("expected a string value");
  }
  ITDB_ASSIGN_OR_RETURN(std::int64_t v, ts.ExpectInt());
  return Value(v);
}

Result<int> ResolveColumn(TokenStream& ts, const std::string& name,
                          const Schema& schema) {
  if (std::optional<int> c = schema.FindTemporal(name)) return *c;
  // Paper-style X1/X2 or T1/T2, 1-based.
  if (name.size() >= 2 && (name[0] == 'X' || name[0] == 'T')) {
    bool digits = true;
    for (std::size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) digits = false;
    }
    if (digits) {
      int idx = std::stoi(name.substr(1)) - 1;
      if (idx >= 0 && idx < schema.temporal_arity()) return idx;
    }
  }
  return ts.ErrorHere("unknown temporal attribute \"" + name + "\"");
}

Result<CmpOperand> ParseOperand(TokenStream& ts, const Schema& schema) {
  CmpOperand out;
  if (ts.Peek().kind == TokenKind::kIdent) {
    ITDB_ASSIGN_OR_RETURN(std::string name, ts.ExpectIdent());
    ITDB_ASSIGN_OR_RETURN(int col, ResolveColumn(ts, name, schema));
    out.col = col;
    if (ts.Peek().kind == TokenKind::kSymbol &&
        (ts.Peek().text == "+" || ts.Peek().text == "-")) {
      // Offset term.
      bool negative = ts.Next().text == "-";
      if (ts.Peek().kind != TokenKind::kInt) {
        return ts.ErrorHere("expected integer offset");
      }
      std::int64_t v = ts.Next().int_value;
      out.offset = negative ? -v : v;
    }
    return out;
  }
  ITDB_ASSIGN_OR_RETURN(out.offset, ts.ExpectInt());
  return out;
}

Result<CmpOp> ParseConstraintCmp(TokenStream& ts) {
  // A tuple is a conjunction: != would need two tuples.
  std::optional<CmpOp> op = ts.PeekCmpOp();
  if (!op.has_value() || *op == CmpOp::kNe) {
    return ts.ErrorHere("expected comparison operator");
  }
  ts.Next();
  return *op;
}

Status ApplyConstraint(TokenStream& ts, Dbm& dbm, CmpOperand lhs, CmpOp op,
                       CmpOperand rhs) {
  if (lhs.col == kZeroVar && rhs.col == kZeroVar) {
    return ts.ErrorHere("constraint mentions no temporal attribute");
  }
  if (lhs.col == rhs.col) {
    return ts.ErrorHere("constraint relates an attribute to itself");
  }
  ITDB_ASSIGN_OR_RETURN(TemporalCondition cond, OrientCmp(lhs, op, rhs));
  ITDB_ASSIGN_OR_RETURN(CmpBranches branches, CompileCmp(cond));
  for (const AtomicConstraint& a : branches.front()) dbm.AddAtomic(a);
  return Status::Ok();
}

Result<GeneralizedTuple> ParseTuple(TokenStream& ts, const Schema& schema) {
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("["));
  std::vector<Lrp> lrps;
  for (int i = 0; i < schema.temporal_arity(); ++i) {
    if (i > 0) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(Lrp l, ParseLrp(ts));
    lrps.push_back(l);
  }
  std::vector<Value> values;
  if (schema.data_arity() > 0) {
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("|"));
    for (int i = 0; i < schema.data_arity(); ++i) {
      if (i > 0) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
      ITDB_ASSIGN_OR_RETURN(Value v, ParseValue(ts, schema.data_type(i)));
      values.push_back(std::move(v));
    }
  }
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("]"));
  GeneralizedTuple tuple(std::move(lrps), std::move(values));
  if (ts.TrySymbol(":")) {
    do {
      ITDB_ASSIGN_OR_RETURN(CmpOperand lhs, ParseOperand(ts, schema));
      ITDB_ASSIGN_OR_RETURN(CmpOp op, ParseConstraintCmp(ts));
      ITDB_ASSIGN_OR_RETURN(CmpOperand rhs, ParseOperand(ts, schema));
      ITDB_RETURN_IF_ERROR(
          ApplyConstraint(ts, tuple.mutable_constraints(), lhs, op, rhs));
    } while (ts.TrySymbol("&&"));
  }
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(";"));
  return tuple;
}

}  // namespace

Result<NamedRelation> ParseRelation(std::string_view text) {
  ITDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  ITDB_ASSIGN_OR_RETURN(NamedRelation out, internal_text_format::ParseRelationBlock(ts));
  if (!ts.AtEnd()) {
    return ts.ErrorHere("trailing input after relation block");
  }
  return out;
}

namespace internal_text_format {

Result<NamedRelation> ParseRelationBlock(TokenStream& ts) {
  if (!ts.TryIdent("relation")) {
    return ts.ErrorHere("expected 'relation'");
  }
  ITDB_ASSIGN_OR_RETURN(std::string name, ts.ExpectIdent());
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("("));
  std::vector<std::string> temporal_names;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  bool first = true;
  while (!ts.TrySymbol(")")) {
    if (!first) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    first = false;
    ITDB_ASSIGN_OR_RETURN(std::string attr, ts.ExpectIdent());
    for (const std::string& existing : temporal_names) {
      if (existing == attr) {
        return ts.ErrorHere("duplicate attribute \"" + attr + "\"");
      }
    }
    for (const std::string& existing : data_names) {
      if (existing == attr) {
        return ts.ErrorHere("duplicate attribute \"" + attr + "\"");
      }
    }
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(":"));
    ITDB_ASSIGN_OR_RETURN(std::string kind, ts.ExpectIdent());
    if (kind == "time") {
      if (!data_names.empty()) {
        return ts.ErrorHere("temporal attributes must precede data attributes");
      }
      temporal_names.push_back(std::move(attr));
    } else if (kind == "int") {
      data_names.push_back(std::move(attr));
      data_types.push_back(DataType::kInt);
    } else if (kind == "string") {
      data_names.push_back(std::move(attr));
      data_types.push_back(DataType::kString);
    } else {
      return ts.ErrorHere("unknown attribute type \"" + kind + "\"");
    }
  }
  Schema schema(std::move(temporal_names), std::move(data_names),
                std::move(data_types));
  GeneralizedRelation relation(schema);
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("{"));
  while (!ts.TrySymbol("}")) {
    ITDB_ASSIGN_OR_RETURN(GeneralizedTuple tuple, ParseTuple(ts, schema));
    ITDB_RETURN_IF_ERROR(relation.AddTuple(std::move(tuple)));
  }
  return NamedRelation{std::move(name), std::move(relation)};
}

}  // namespace internal_text_format

namespace {

/// Value::ToString does not escape; the lexer unescapes '\x' inside string
/// literals, so quotes and backslashes must be escaped here for the printed
/// form to parse back to the same value.
std::string PrintValue(const Value& v) {
  if (v.IsInt()) return std::to_string(v.AsInt());
  std::string out = "\"";
  for (char c : v.AsString()) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string PrintRelation(const std::string& name,
                          const GeneralizedRelation& relation) {
  const Schema& schema = relation.schema();
  std::string out = "relation " + name + "(";
  bool first = true;
  for (const std::string& n : schema.temporal_names()) {
    if (!first) out += ", ";
    out += n + ": time";
    first = false;
  }
  for (int i = 0; i < schema.data_arity(); ++i) {
    if (!first) out += ", ";
    out += schema.data_name(i);
    out += schema.data_type(i) == DataType::kInt ? ": int" : ": string";
    first = false;
  }
  out += ") {\n";
  for (const GeneralizedTuple& t : relation.tuples()) {
    Dbm closed = t.constraints();
    if (!closed.Close().ok() || !closed.feasible()) {
      // A tuple with contradictory constraints has an empty extension;
      // omitting it preserves the represented set.
      continue;
    }
    out += "  [";
    for (int i = 0; i < t.temporal_arity(); ++i) {
      if (i > 0) out += ", ";
      out += t.lrp(i).ToString();
    }
    if (t.data_arity() > 0) {
      out += " | ";
      for (int i = 0; i < t.data_arity(); ++i) {
        if (i > 0) out += ", ";
        out += PrintValue(t.value(i));
      }
    }
    out += "]";
    std::vector<AtomicConstraint> atomics = closed.MinimalAtomics();
    for (std::size_t i = 0; i < atomics.size(); ++i) {
      out += i == 0 ? " : " : " && ";
      const AtomicConstraint& a = atomics[i];
      if (a.lhs != kZeroVar && a.rhs != kZeroVar) {
        out += schema.temporal_name(a.lhs) + " <= " +
               schema.temporal_name(a.rhs);
        if (a.bound > 0) out += " + " + std::to_string(a.bound);
        if (a.bound < 0) out += " - " + std::to_string(-a.bound);
      } else if (a.rhs == kZeroVar) {
        out += schema.temporal_name(a.lhs) + " <= " + std::to_string(a.bound);
      } else {
        out += schema.temporal_name(a.rhs) + " >= " + std::to_string(-a.bound);
      }
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace itdb
