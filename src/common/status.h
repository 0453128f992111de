// Lightweight Status / Result<T> error-handling primitives used across LEED.
//
// We do not use exceptions on the data path: the paper's request-execution
// flow is a per-command state machine driven by completion events, and an
// error is just another terminal state. Status carries a code plus an
// optional human-readable message; Result<T> couples a Status with a value.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace leed {

enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound,        // key absent from the store
  kAlreadyExists,   // duplicate insert where forbidden
  kInvalidArgument, // malformed request / out-of-range parameter
  kOutOfSpace,      // circular log full and compaction cannot free space
  kBusy,            // resource locked (segment lock bit, compaction overlap)
  kOverloaded,      // waiting queue full / no tokens: caller should back off
  kWrongView,       // hop-counter mismatch during membership change (NACK)
  kUnavailable,     // node failed / chain broken / not in RUNNING state
  kCorruption,      // checksum or structural invariant violation on media
  kInternal,        // invariant violation in our own logic
  kIoError,         // device-level IO failure (injected or modeled)
};

// Returns a stable lowercase name, e.g. "not_found".
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  explicit Status(StatusCode code) : code_(code) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status OutOfSpace(std::string m = "") {
    return Status(StatusCode::kOutOfSpace, std::move(m));
  }
  static Status Busy(std::string m = "") {
    return Status(StatusCode::kBusy, std::move(m));
  }
  static Status Overloaded(std::string m = "") {
    return Status(StatusCode::kOverloaded, std::move(m));
  }
  static Status WrongView(std::string m = "") {
    return Status(StatusCode::kWrongView, std::move(m));
  }
  static Status Unavailable(std::string m = "") {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status Internal(std::string m = "") {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status IoError(std::string m = "") {
    return Status(StatusCode::kIoError, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsWrongView() const { return code_ == StatusCode::kWrongView; }

  // "ok" or "not_found: segment 12 missing".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Result<T>: a Status plus a value that is only meaningful when ok().
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT: implicit
  Result(Status status) : status_(std::move(status)) {}  // NOLINT: implicit

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return value_; }
  const T& value() const& { return value_; }
  T&& value() && { return std::move(value_); }

  T value_or(T fallback) const& { return ok() ? value_ : std::move(fallback); }

 private:
  Status status_;
  T value_{};
};

}  // namespace leed

// Propagate a non-OK Status out of the current function.
#define LEED_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::leed::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)
