// Error model for recoverable failures (I/O, argument validation).
//
// The library does not use exceptions (Google C++ style). Functions
// that can fail at runtime return rps::Status, or rps::Result<T> when
// they also produce a value. Programmer errors use RPS_CHECK instead.

#ifndef RPS_UTIL_STATUS_H_
#define RPS_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace rps {

/// Broad category of a failure. Kept deliberately small; the message
/// carries the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kIoError,
  kInternal,
  kUnavailable,
};

/// Returns a stable human-readable name for `code` (e.g. "IO_ERROR").
const char* StatusCodeName(StatusCode code);

/// Value-type result of an operation that can fail without a payload.
///
/// A default-constructed Status is OK. Statuses are cheap to copy when
/// OK (empty message) and carry a message otherwise.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  /// Transient failure that may succeed on retry (see util/retry.h).
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of
/// an errored Result is a checked programmer error.
template <typename T>
class Result {
 public:
  /// Implicit from value and from Status so call sites can `return x;`
  /// or `return Status::IoError(...)`.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    RPS_CHECK_MSG(!std::get<Status>(data_).ok(),
                  "Result constructed from OK status without a value");
  }
  /// Constructs the value in place from `args`, so a large T is built
  /// where the Result holds it instead of being moved in.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : data_(std::in_place_index<0>, std::forward<Args>(args)...) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& {
    RPS_CHECK_MSG(ok(), "Result::value() called on errored Result");
    return std::get<T>(data_);
  }
  T& value() & {
    RPS_CHECK_MSG(ok(), "Result::value() called on errored Result");
    return std::get<T>(data_);
  }
  T&& value() && {
    RPS_CHECK_MSG(ok(), "Result::value() called on errored Result");
    return std::get<T>(std::move(data_));
  }

  /// OK when the Result holds a value.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace rps

/// Propagates a non-OK Status from an expression to the caller.
#define RPS_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::rps::Status rps_status_ = (expr);           \
    if (!rps_status_.ok()) return rps_status_;    \
  } while (false)

#define RPS_INTERNAL_CONCAT_IMPL(a, b) a##b
#define RPS_INTERNAL_CONCAT(a, b) RPS_INTERNAL_CONCAT_IMPL(a, b)

#define RPS_INTERNAL_ASSIGN_OR_RETURN(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) {                                    \
    return tmp.status();                              \
  }                                                   \
  lhs = std::move(tmp).value()

/// Evaluates a Result expression; on error returns its Status,
/// otherwise assigns the value to `lhs` (which may be a declaration,
/// e.g. RPS_ASSIGN_OR_RETURN(const int x, Compute())).
#define RPS_ASSIGN_OR_RETURN(lhs, expr)                                \
  RPS_INTERNAL_ASSIGN_OR_RETURN(                                       \
      RPS_INTERNAL_CONCAT(rps_result_, __LINE__), lhs, expr)

#endif  // RPS_UTIL_STATUS_H_
