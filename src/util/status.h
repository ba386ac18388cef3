// Minimal Status type for recoverable failures across the FXRZ public API.
//
// FXRZ does not use exceptions. Operations that can fail for reasons outside
// the caller's control (corrupt compressed stream, bad file) return a Status;
// precondition violations use FXRZ_CHECK instead.

#ifndef FXRZ_UTIL_STATUS_H_
#define FXRZ_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace fxrz {

// Error category. Kept deliberately small; extend only when a caller needs
// to branch on the category.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kCorruption,
  kNotFound,
  kInternal,
  // Serving-path categories (src/serve/, core/guard.*). The first three are
  // how the server tells overload, slowness, and backend failure apart --
  // each drives a different client policy (shed, give up, retry/fail over).
  kResourceExhausted,  // load shed: queue full, tenant quota exceeded
  kDeadlineExceeded,   // the request's deadline expired before completion
  kUnavailable,        // transient backend failure / circuit breaker open
  kCancelled,          // cooperative cancellation (e.g. graceful drain)
  kOutOfRange,         // target ratio beyond what the codec reaches
};

// Value-semantic result of a fallible operation. [[nodiscard]]: silently
// dropping a Status is how corruption gets swallowed; every call site must
// check, propagate, or FXRZ_CHECK it.
class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable rendering, e.g. "Corruption: truncated stream".
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kCorruption: name = "Corruption"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kInternal: name = "Internal"; break;
      case StatusCode::kResourceExhausted: name = "ResourceExhausted"; break;
      case StatusCode::kDeadlineExceeded: name = "DeadlineExceeded"; break;
      case StatusCode::kUnavailable: name = "Unavailable"; break;
      case StatusCode::kCancelled: name = "Cancelled"; break;
      case StatusCode::kOutOfRange: name = "OutOfRange"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

// StatusOr-lite: either a value or a non-OK Status. Implicit construction
// from both sides keeps call sites terse:
//
//   StatusOr<Archive> Build();               // return Status::...(...) or T
//   FXRZ_ASSIGN_OR_RETURN(Archive a, Build());
//
// value() aborts when called on a non-OK result (programmer error, same
// contract as FXRZ_CHECK); check ok() or use FXRZ_ASSIGN_OR_RETURN.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors absl::StatusOr.
  StatusOr(Status status) : status_(std::move(status)) {
    FXRZ_CHECK(!status_.ok()) << "StatusOr constructed from an OK status";
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(T value) : value_(std::move(value)) {}

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    FXRZ_CHECK(ok()) << "StatusOr::value on error: " << status_.ToString();
    return *value_;
  }
  const T& value() const& {
    FXRZ_CHECK(ok()) << "StatusOr::value on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    FXRZ_CHECK(ok()) << "StatusOr::value on error: " << status_.ToString();
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

// Transient-vs-permanent classification for the serving layer's
// retry-with-backoff loop. Retrying is worthwhile exactly when the same
// request could succeed a moment later without anything else changing:
//
//   kUnavailable        a backend hiccuped or a circuit breaker is open;
//                       the breaker's half-open probe window or the fault
//                       clearing makes a later attempt meaningful.
//   kResourceExhausted  a queue or quota was momentarily full; backoff is
//                       precisely the remedy.
//
// Everything else is permanent for this request: the input is bad
// (kInvalidArgument), the bytes are bad (kCorruption, kNotFound), the
// request's own time budget is spent (kDeadlineExceeded, kCancelled), the
// codec cannot reach the target ratio (kOutOfRange; retrying recomputes
// the same answer), or the failure is a deterministic fault (kInternal).
inline bool StatusIsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}
inline bool StatusIsRetryable(const Status& status) {
  return StatusIsRetryable(status.code());
}

// Propagates a non-OK status to the caller.
#define FXRZ_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::fxrz::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

// Evaluates `expr` (a StatusOr<T>), returns its Status on error, otherwise
// move-assigns the value into `lhs` (which may be a declaration).
#define FXRZ_ASSIGN_OR_RETURN(lhs, expr) \
  FXRZ_ASSIGN_OR_RETURN_IMPL_(           \
      FXRZ_STATUS_CONCAT_(_fxrz_statusor_, __LINE__), lhs, expr)

#define FXRZ_STATUS_CONCAT_INNER_(a, b) a##b
#define FXRZ_STATUS_CONCAT_(a, b) FXRZ_STATUS_CONCAT_INNER_(a, b)
#define FXRZ_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace fxrz

#endif  // FXRZ_UTIL_STATUS_H_
