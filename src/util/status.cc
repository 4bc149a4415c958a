#include "util/status.h"

namespace itdb {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kOverflow:
      return "overflow";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kUnimplemented:
      return "unimplemented";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace itdb
