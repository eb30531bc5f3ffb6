// Status and StatusOr: lightweight, exception-free error handling in the
// style used by database engines (RocksDB / Arrow).
#ifndef SHERMAN_UTIL_STATUS_H_
#define SHERMAN_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace sherman {

// A Status encodes the result of an operation: OK, or an error code plus a
// human-readable message. Statuses are cheap to copy in the OK case.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kOutOfMemory = 4,
    kRetry = 5,       // Transient inconsistency; the caller should retry.
    kTimedOut = 6,
    kInternal = 7,
    // A bounded lock acquisition observed an expired lease (the holder
    // crashed) and triggered recovery; the caller must re-resolve the
    // world before retrying its protocol.
    kLeaseSteal = 8,
  };

  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status OutOfMemory(std::string msg = "") {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  static Status Retry(std::string msg = "") {
    return Status(Code::kRetry, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status LeaseSteal(std::string msg = "") {
    return Status(Code::kLeaseSteal, std::move(msg));
  }
  // Rebuilds a status from its parts (e.g. decoded from an RPC body).
  static Status FromCode(Code code, std::string msg) {
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsOutOfMemory() const { return code_ == Code::kOutOfMemory; }
  bool IsRetry() const { return code_ == Code::kRetry; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsInternal() const { return code_ == Code::kInternal; }
  bool IsLeaseSteal() const { return code_ == Code::kLeaseSteal; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string msg_;
};

// StatusOr<T> holds either a value or an error Status. Access to the value
// when !ok() is a programming error (asserted in debug builds).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: implicit
    assert(!status_.ok());
  }
  StatusOr(T value)  // NOLINT: implicit by design, mirrors absl::StatusOr.
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return value_;
  }
  const T& value() const {
    assert(ok());
    return value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace sherman

#endif  // SHERMAN_UTIL_STATUS_H_
