// Structured diagnostics for the static query analyzer.
//
// A Diagnostic is one finding of the analyzer (src/analysis) or of sort
// inference (query/sorts.h): a severity, a stable code like "A003", a
// source span, a human-readable message, and an optional fix-it hint.  The
// full code table lives in DESIGN.md ("Static analysis"); the constants
// below are the single source of truth for the spellings.
//
// Formatting comes in two shapes:
//   * FormatDiagnostic  -- a rustc-style block with the offending source
//     line and a caret underline, for the shell `check` command;
//   * FormatDiagnosticList -- one line per diagnostic, for Status messages
//     when evaluation aborts on analysis errors.

#ifndef ITDB_UTIL_DIAGNOSTIC_H_
#define ITDB_UTIL_DIAGNOSTIC_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/source_span.h"

namespace itdb {

enum class Severity {
  kNote,
  kWarning,
  kError,
};

/// "note" / "warning" / "error".
std::string_view SeverityName(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // Stable code, e.g. "A003".
  SourceSpan span;      // Unknown span when the AST was built in code.
  std::string message;  // One sentence, no trailing period or newline.
  std::string fixit;    // Optional suggestion; empty = none.
};

/// Stable diagnostic codes.  Append-only: codes are pinned by tests, the
/// corpus `# expect:` annotations, and user scripts.  A retired code is
/// never reused: A015 (a certified lcm over the blowup threshold, the same
/// number A012 reports) and A016 (an interval-hull refutation, now an A009
/// proof of the certificate pass) are no longer emitted.
namespace diag {
inline constexpr std::string_view kUnknownRelation = "A001";
inline constexpr std::string_view kArityMismatch = "A002";
inline constexpr std::string_view kConflictingSorts = "A003";
inline constexpr std::string_view kIncompatibleConstant = "A004";
inline constexpr std::string_view kShadowedVariable = "A005";
inline constexpr std::string_view kUndeterminedSort = "A006";
inline constexpr std::string_view kMixedSortComparison = "A007";
inline constexpr std::string_view kUnsafeDataVariable = "A008";
inline constexpr std::string_view kStaticallyEmpty = "A009";
inline constexpr std::string_view kExpensiveComplement = "A010";
inline constexpr std::string_view kCrossProduct = "A011";
inline constexpr std::string_view kPeriodBlowup = "A012";
inline constexpr std::string_view kVacuousQuantifier = "A013";
inline constexpr std::string_view kCertifiedHugeCardinality = "A014";
inline constexpr std::string_view kUnboundedCertificate = "A017";
}  // namespace diag

bool HasErrors(const std::vector<Diagnostic>& diagnostics);
int CountSeverity(const std::vector<Diagnostic>& diagnostics,
                  Severity severity);

/// One rustc-style block:
///
///   error[A003]: variable "t" used with conflicting sorts (time vs string)
///    --> 2:14
///     |
///   2 | P(t) AND Q(t, "x")
///     |              ^^^
///     = help: ...
///
/// `source` is the text the span indexes; when it is empty or the span is
/// unknown, the location lines are omitted.
std::string FormatDiagnostic(std::string_view source, const Diagnostic& d);

/// Every diagnostic as consecutive FormatDiagnostic blocks.
std::string FormatDiagnostics(std::string_view source,
                              const std::vector<Diagnostic>& diagnostics);

/// Compact form, one line per diagnostic:
///   error[A003] at 2:14: variable "t" used with conflicting sorts ...
std::string FormatDiagnosticList(const std::vector<Diagnostic>& diagnostics);

}  // namespace itdb

#endif  // ITDB_UTIL_DIAGNOSTIC_H_
