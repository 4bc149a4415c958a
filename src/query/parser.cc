#include "query/parser.h"

#include <optional>
#include <utility>
#include <vector>

#include "storage/lexer.h"

namespace itdb {
namespace query {

namespace {

bool TryKeyword(TokenStream& ts, std::string_view upper,
                std::string_view lower) {
  return ts.TryIdent(upper) || ts.TryIdent(lower);
}

bool PeekIsKeyword(const TokenStream& ts) {
  if (ts.Peek().kind != TokenKind::kIdent) return false;
  const std::string& t = ts.Peek().text;
  return t == "AND" || t == "and" || t == "OR" || t == "or" || t == "NOT" ||
         t == "not" || t == "EXISTS" || t == "exists" || t == "FORALL" ||
         t == "forall";
}

/// Span from the first byte of `first` to the last byte consumed so far.
SourceSpan SpanFrom(const Token& first, const TokenStream& ts) {
  const Token& last = ts.LastConsumed();
  SourceSpan out = first.span();
  if (last.offset + last.length > out.end) out.end = last.offset + last.length;
  return out;
}

Result<QueryPtr> ParseImpl(TokenStream& ts);

Result<Term> ParseTerm(TokenStream& ts, SourceSpan* span) {
  const Token first = ts.Peek();
  auto finish = [&](Term t) {
    if (span != nullptr) *span = SpanFrom(first, ts);
    return t;
  };
  if (ts.Peek().kind == TokenKind::kString) {
    return finish(Term::String(ts.Next().text));
  }
  if (ts.Peek().kind == TokenKind::kInt ||
      (ts.Peek().kind == TokenKind::kSymbol && ts.Peek().text == "-")) {
    ITDB_ASSIGN_OR_RETURN(std::int64_t v, ts.ExpectInt());
    return finish(Term::Int(v));
  }
  if (ts.Peek().kind == TokenKind::kIdent && !PeekIsKeyword(ts)) {
    std::string name = ts.Next().text;
    std::int64_t offset = 0;
    if (ts.Peek().kind == TokenKind::kSymbol &&
        (ts.Peek().text == "+" || ts.Peek().text == "-") &&
        ts.Peek(1).kind == TokenKind::kInt) {
      bool negative = ts.Next().text == "-";
      std::int64_t v = ts.Next().int_value;
      offset = negative ? -v : v;
    }
    return finish(Term::Variable(std::move(name), offset));
  }
  return ts.ErrorHere("expected a term");
}

QueryPtr MakeCompare(Term lhs, CmpOp op, Term rhs, SourceSpan lhs_span,
                     SourceSpan rhs_span) {
  QueryPtr out = Query::Compare(std::move(lhs), op, std::move(rhs));
  Query::SetSpans(out, SourceSpan::Cover(lhs_span, rhs_span),
                  {lhs_span, rhs_span});
  return out;
}

Result<QueryPtr> ParsePrimary(TokenStream& ts) {
  const Token first = ts.Peek();
  if (ts.TrySymbol("(")) {
    ITDB_ASSIGN_OR_RETURN(QueryPtr inner, ParseImpl(ts));
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(")"));
    return inner;
  }
  // Atom: NAME "(" ... ")".
  if (ts.Peek().kind == TokenKind::kIdent && !PeekIsKeyword(ts) &&
      ts.Peek(1).kind == TokenKind::kSymbol && ts.Peek(1).text == "(") {
    std::string name = ts.Next().text;
    ts.Next();  // "(".
    std::vector<Term> args;
    std::vector<SourceSpan> arg_spans;
    if (!ts.TrySymbol(")")) {
      while (true) {
        SourceSpan arg_span;
        ITDB_ASSIGN_OR_RETURN(Term t, ParseTerm(ts, &arg_span));
        args.push_back(std::move(t));
        arg_spans.push_back(arg_span);
        if (ts.TrySymbol(")")) break;
        ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
      }
    }
    QueryPtr atom = Query::Atom(std::move(name), std::move(args));
    Query::SetSpans(atom, SpanFrom(first, ts), std::move(arg_spans));
    return atom;
  }
  // Comparison chain: term (OP term)+.
  SourceSpan first_span;
  ITDB_ASSIGN_OR_RETURN(Term first_term, ParseTerm(ts, &first_span));
  std::optional<CmpOp> op = ts.TryCmpOp();
  if (!op.has_value()) {
    return ts.ErrorHere("expected comparison operator");
  }
  SourceSpan second_span;
  ITDB_ASSIGN_OR_RETURN(Term second, ParseTerm(ts, &second_span));
  QueryPtr out = MakeCompare(first_term, *op, second, first_span, second_span);
  Term prev = second;
  SourceSpan prev_span = second_span;
  while (true) {
    std::optional<CmpOp> next_op = ts.TryCmpOp();
    if (!next_op.has_value()) break;
    SourceSpan next_span;
    ITDB_ASSIGN_OR_RETURN(Term next, ParseTerm(ts, &next_span));
    QueryPtr cmp = MakeCompare(prev, *next_op, next, prev_span, next_span);
    out = Query::And(std::move(out), std::move(cmp));
    Query::SetSpans(out, SpanFrom(first, ts));
    prev = next;
    prev_span = next_span;
  }
  return out;
}

Result<QueryPtr> ParseUnary(TokenStream& ts) {
  const Token first = ts.Peek();
  if (TryKeyword(ts, "NOT", "not")) {
    ITDB_ASSIGN_OR_RETURN(QueryPtr inner, ParseUnary(ts));
    QueryPtr out = Query::Not(std::move(inner));
    Query::SetSpans(out, SpanFrom(first, ts));
    return out;
  }
  // Quantifier scope extends as far right as possible (standard logic
  // convention): the body is a full implication expression.
  if (TryKeyword(ts, "EXISTS", "exists")) {
    ITDB_ASSIGN_OR_RETURN(std::string var, ts.ExpectIdent());
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("."));
    ITDB_ASSIGN_OR_RETURN(QueryPtr body, ParseImpl(ts));
    QueryPtr out = Query::Exists(std::move(var), std::move(body));
    Query::SetSpans(out, SpanFrom(first, ts));
    return out;
  }
  if (TryKeyword(ts, "FORALL", "forall")) {
    ITDB_ASSIGN_OR_RETURN(std::string var, ts.ExpectIdent());
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("."));
    ITDB_ASSIGN_OR_RETURN(QueryPtr body, ParseImpl(ts));
    // Sugar for NOT EXISTS var . NOT body: every node it builds points at
    // the FORALL, so diagnostics on any of them do.
    QueryPtr out = Query::Forall(std::move(var), std::move(body));
    const SourceSpan span = SpanFrom(first, ts);
    for (const QueryPtr& node : {out, out->left(), out->left()->left()}) {
      Query::SetSpans(node, span);
    }
    return out;
  }
  return ParsePrimary(ts);
}

Result<QueryPtr> ParseAnd(TokenStream& ts) {
  const Token first = ts.Peek();
  ITDB_ASSIGN_OR_RETURN(QueryPtr out, ParseUnary(ts));
  while (TryKeyword(ts, "AND", "and")) {
    ITDB_ASSIGN_OR_RETURN(QueryPtr rhs, ParseUnary(ts));
    out = Query::And(std::move(out), std::move(rhs));
    Query::SetSpans(out, SpanFrom(first, ts));
  }
  return out;
}

Result<QueryPtr> ParseOr(TokenStream& ts) {
  const Token first = ts.Peek();
  ITDB_ASSIGN_OR_RETURN(QueryPtr out, ParseAnd(ts));
  while (TryKeyword(ts, "OR", "or")) {
    ITDB_ASSIGN_OR_RETURN(QueryPtr rhs, ParseAnd(ts));
    out = Query::Or(std::move(out), std::move(rhs));
    Query::SetSpans(out, SpanFrom(first, ts));
  }
  return out;
}

Result<QueryPtr> ParseImpl(TokenStream& ts) {
  const Token first = ts.Peek();
  ITDB_ASSIGN_OR_RETURN(QueryPtr lhs, ParseOr(ts));
  if (ts.TrySymbol("->")) {
    ITDB_ASSIGN_OR_RETURN(QueryPtr rhs, ParseImpl(ts));
    // Implies desugars to (NOT lhs) OR rhs; give both derived nodes the
    // full source extent so diagnostics can still point somewhere useful.
    SourceSpan lhs_span = lhs->span();
    QueryPtr negated = Query::Not(std::move(lhs));
    Query::SetSpans(negated, lhs_span);
    QueryPtr out = Query::Or(std::move(negated), std::move(rhs));
    Query::SetSpans(out, SpanFrom(first, ts));
    return out;
  }
  return lhs;
}

}  // namespace

Result<QueryPtr> ParseQuery(std::string_view text) {
  ITDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  ITDB_ASSIGN_OR_RETURN(QueryPtr out, ParseImpl(ts));
  if (!ts.AtEnd()) {
    return ts.ErrorHere("trailing input after query");
  }
  return out;
}

}  // namespace query
}  // namespace itdb
