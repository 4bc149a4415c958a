// Status / Result<T> error model for itdb.
//
// The library does not use exceptions (following the style of large C++
// database codebases such as RocksDB and Arrow).  Every fallible operation
// returns a Status, or a Result<T> when it also produces a value.  Statuses
// carry a code and a human-readable message.

#ifndef ITDB_UTIL_STATUS_H_
#define ITDB_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace itdb {

/// Machine-readable classification of a failure.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// A caller-supplied argument is malformed (e.g. a zero-period lrp split,
  /// mismatched schemas, an out-of-range column index).
  kInvalidArgument = 1,
  /// Integer arithmetic would overflow 64-bit intermediate values.
  kOverflow = 2,
  /// A configured resource budget was exceeded (normalization blow-up,
  /// complement universe size, ...).  The computation is well-defined but
  /// would be too large; callers may retry with a larger budget.
  kResourceExhausted = 3,
  /// A lookup failed (e.g. unknown relation or attribute name).
  kNotFound = 4,
  /// Input text could not be parsed.
  kParseError = 5,
  /// The operation is not supported for the given inputs (e.g. algebra on
  /// general -- non-restricted -- constraints).
  kUnimplemented = 6,
};

/// Returns a stable lower-case name for `code` ("ok", "overflow", ...).
std::string_view StatusCodeToString(StatusCode code);

/// The result of an operation that can fail.  Cheap to copy when OK (no
/// allocation); failure states carry a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Overflow(std::string msg) {
    return Status(StatusCode::kOverflow, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value of type T or an error Status.  Analogous to absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Constructs a failed result.  `status` must not be OK.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("Result constructed from OK status");
    }
  }

  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Pre: ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace itdb

/// Propagates a non-OK Status from an expression to the caller.
#define ITDB_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::itdb::Status _itdb_status = (expr);     \
    if (!_itdb_status.ok()) return _itdb_status; \
  } while (false)

/// Evaluates a Result<T> expression; on failure returns its Status, on
/// success assigns the value to `lhs` (which may be a declaration).
#define ITDB_ASSIGN_OR_RETURN(lhs, expr)                      \
  ITDB_ASSIGN_OR_RETURN_IMPL_(                                \
      ITDB_STATUS_CONCAT_(_itdb_result, __LINE__), lhs, expr)

#define ITDB_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                                \
  if (!var.ok()) return var.status();               \
  lhs = std::move(var).value()

#define ITDB_STATUS_CONCAT_INNER_(a, b) a##b
#define ITDB_STATUS_CONCAT_(a, b) ITDB_STATUS_CONCAT_INNER_(a, b)

#endif  // ITDB_UTIL_STATUS_H_
