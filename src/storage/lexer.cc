#include "storage/lexer.h"

#include <cctype>

namespace itdb {

namespace {

const std::string_view kSymbols[] = {
    // Multi-character symbols first: longest match wins.
    "&&", "||", "->", "!=", "<=", ">=", "(", ")", "{", "}", "[",
    "]",  ",",  ":",  ";",  ".",  "&",  "|", "!", "=", "<", ">", "+", "-",
};

std::string DescribePosition(std::string_view text, std::size_t offset) {
  LineCol lc = LineColAt(text, offset);
  return std::to_string(lc.line) + ":" + std::to_string(lc.col) +
         " (offset " + std::to_string(offset) + ")";
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {  // Line comment.
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_')) {
        ++i;
      }
      out.push_back(Token{TokenKind::kIdent,
                          std::string(text.substr(start, i - start)), 0,
                          start, i - start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      std::int64_t value = 0;
      bool overflow = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
        std::int64_t digit = text[i] - '0';
        if (value > (INT64_MAX - digit) / 10) overflow = true;
        if (!overflow) value = value * 10 + digit;
        ++i;
      }
      if (overflow) {
        return Status::ParseError("integer literal overflows int64 at " +
                                  DescribePosition(text, start));
      }
      // A digit run immediately followed by an identifier character is an
      // lrp like "10n": emit the int, the ident lexes next.
      out.push_back(Token{TokenKind::kInt, std::string(), value, start,
                          i - start});
      continue;
    }
    if (c == '"') {
      std::size_t start = i++;
      std::string body;
      bool closed = false;
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n) {
          body += text[i + 1];
          i += 2;
          continue;
        }
        if (text[i] == '"') {
          closed = true;
          ++i;
          break;
        }
        body += text[i++];
      }
      if (!closed) {
        return Status::ParseError("unterminated string at " +
                                  DescribePosition(text, start));
      }
      out.push_back(Token{TokenKind::kString, std::move(body), 0, start,
                          i - start});
      continue;
    }
    bool matched = false;
    for (std::string_view symbol : kSymbols) {
      if (text.substr(i, symbol.size()) == symbol) {
        out.push_back(Token{TokenKind::kSymbol, std::string(symbol), 0, i,
                            symbol.size()});
        i += symbol.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at " + DescribePosition(text, i));
    }
  }
  out.push_back(Token{TokenKind::kEnd, "", 0, n, 0});
  // Fill in line:col in one pass: tokens are in increasing offset order.
  {
    int line = 1;
    int col = 1;
    std::size_t pos = 0;
    for (Token& t : out) {
      while (pos < t.offset && pos < n) {
        if (text[pos] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
        ++pos;
      }
      t.line = line;
      t.col = col;
    }
  }
  return out;
}

const Token& TokenStream::Peek(int lookahead) const {
  std::size_t idx = pos_ + static_cast<std::size_t>(lookahead);
  if (idx >= tokens_.size()) return tokens_.back();  // kEnd sentinel.
  return tokens_[idx];
}

Token TokenStream::Next() {
  Token t = Peek();
  if (pos_ < tokens_.size() - 1) ++pos_;
  return t;
}

const Token& TokenStream::LastConsumed() const {
  if (pos_ == 0) return tokens_.back();  // kEnd sentinel.
  return tokens_[pos_ - 1];
}

bool TokenStream::TrySymbol(std::string_view symbol) {
  if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
    Next();
    return true;
  }
  return false;
}

std::optional<CmpOp> TokenStream::PeekCmpOp() const {
  if (Peek().kind != TokenKind::kSymbol) return std::nullopt;
  return CmpOpFromSymbol(Peek().text);
}

std::optional<CmpOp> TokenStream::TryCmpOp() {
  std::optional<CmpOp> op = PeekCmpOp();
  if (op.has_value()) Next();
  return op;
}

bool TokenStream::TryIdent(std::string_view ident) {
  if (Peek().kind == TokenKind::kIdent && Peek().text == ident) {
    Next();
    return true;
  }
  return false;
}

Status TokenStream::ExpectSymbol(std::string_view symbol) {
  if (!TrySymbol(symbol)) {
    return ErrorHere("expected '" + std::string(symbol) + "'");
  }
  return Status::Ok();
}

Result<std::string> TokenStream::ExpectIdent() {
  if (Peek().kind != TokenKind::kIdent) {
    return ErrorHere("expected identifier");
  }
  return Next().text;
}

Result<std::int64_t> TokenStream::ExpectInt() {
  bool negative = TrySymbol("-");
  if (Peek().kind != TokenKind::kInt) {
    return ErrorHere("expected integer");
  }
  std::int64_t v = Next().int_value;
  return negative ? -v : v;
}

Status TokenStream::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string got = t.kind == TokenKind::kEnd ? "end of input"
                    : t.kind == TokenKind::kInt
                        ? std::to_string(t.int_value)
                        : "'" + t.text + "'";
  return Status::ParseError(message + ", got " + got + " at " +
                            std::to_string(t.line) + ":" +
                            std::to_string(t.col) + " (offset " +
                            std::to_string(t.offset) + ")");
}

}  // namespace itdb
