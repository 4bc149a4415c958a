// A small lexer shared by the relation text format and the query parser.

#ifndef ITDB_STORAGE_LEXER_H_
#define ITDB_STORAGE_LEXER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cmp.h"
#include "util/source_span.h"
#include "util/status.h"

namespace itdb {

enum class TokenKind {
  kIdent,   // [A-Za-z_][A-Za-z0-9_]*
  kInt,     // decimal integer (no sign; '-' is a symbol)
  kString,  // "..." with \" and \\ escapes
  kSymbol,  // one of the fixed operator/punctuation spellings
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;              // Ident name, symbol spelling, string body.
  std::int64_t int_value = 0;    // For kInt.
  std::size_t offset = 0;        // Byte offset in the input, for errors.
  std::size_t length = 0;        // Raw source length (incl. string quotes).
  int line = 1;                  // 1-based source line of `offset`.
  int col = 1;                   // 1-based column of `offset` on `line`.

  /// The source span this token covers.
  SourceSpan span() const { return {offset, offset + length, line, col}; }
};

/// Tokenizes the whole input.  Recognized symbols:
///   ( ) { } [ ] , : ; . & | && || ! != <= >= = < > + - ->
/// Line comments start with '#'.
Result<std::vector<Token>> Tokenize(std::string_view text);

/// Cursor over a token vector with convenience accessors.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(int lookahead = 0) const;
  Token Next();
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  /// True (and consumes) when the next token is the given symbol.
  bool TrySymbol(std::string_view symbol);
  /// True (and consumes) when the next token is the given identifier.
  bool TryIdent(std::string_view ident);
  /// The comparison operator the next token spells, if any (not consumed).
  std::optional<CmpOp> PeekCmpOp() const;
  /// PeekCmpOp, consuming the token when it spells an operator.
  std::optional<CmpOp> TryCmpOp();

  Status ExpectSymbol(std::string_view symbol);
  /// Consumes an identifier and returns its name.
  Result<std::string> ExpectIdent();
  /// Consumes an (optionally '-'-prefixed) integer.
  Result<std::int64_t> ExpectInt();

  /// The most recently consumed token; the kEnd sentinel before any Next().
  const Token& LastConsumed() const;

  /// A parse error pointing at the current token, with its line:col.
  Status ErrorHere(const std::string& message) const;

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  Token end_token_;
};

}  // namespace itdb

#endif  // ITDB_STORAGE_LEXER_H_
