// Error model for springfs.
//
// All fallible operations across interface boundaries return Status (for
// void-returning operations) or Result<T>. Exceptions are not thrown across
// interface boundaries; this mirrors OS-systems practice where errors are
// values and control flow is explicit.

#ifndef SPRINGFS_SUPPORT_RESULT_H_
#define SPRINGFS_SUPPORT_RESULT_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace springfs {

// Error codes used throughout the system. Kept deliberately close to the
// errno-style vocabulary a UNIX emulation layer (paper section 3.1) expects.
enum class ErrorCode : int32_t {
  kOk = 0,
  kNotFound,          // name or object does not exist
  kAlreadyExists,     // binding or file already present
  kInvalidArgument,   // malformed name, bad offset, bad length
  kPermissionDenied,  // ACL check failed or rights insufficient
  kNotADirectory,     // resolve stepped through a non-context
  kIsADirectory,      // file operation on a context
  kNotEmpty,          // unbind/remove of non-empty context
  kNoSpace,           // device or table exhausted
  kIoError,           // device-level failure
  kNotSupported,      // operation not implemented by this layer
  kWrongType,         // narrow failure
  kBusy,              // object in use (e.g. unmount with open files)
  kStale,             // handle refers to deleted object
  kCorrupted,         // on-disk structure failed validation
  kOutOfRange,        // offset beyond end where not allowed
  kTimedOut,          // simulated network or lock timeout
  kConnectionLost,    // remote node unreachable
  kDeadObject,        // server domain has been destroyed
};

// Human-readable name for an error code.
const char* ErrorCodeName(ErrorCode code);

// A Status is either OK or an error code plus a context message.
class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "kNotFound: no such binding 'x'" style text.
  [[nodiscard]] std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

// Convenience constructors, e.g. ErrNotFound("no binding 'x'").
#define SPRINGFS_DEFINE_ERR(Name)                          \
  inline Status Err##Name(std::string message = "") {      \
    return Status(ErrorCode::k##Name, std::move(message)); \
  }
SPRINGFS_DEFINE_ERR(NotFound)
SPRINGFS_DEFINE_ERR(AlreadyExists)
SPRINGFS_DEFINE_ERR(InvalidArgument)
SPRINGFS_DEFINE_ERR(PermissionDenied)
SPRINGFS_DEFINE_ERR(NotADirectory)
SPRINGFS_DEFINE_ERR(IsADirectory)
SPRINGFS_DEFINE_ERR(NotEmpty)
SPRINGFS_DEFINE_ERR(NoSpace)
SPRINGFS_DEFINE_ERR(IoError)
SPRINGFS_DEFINE_ERR(NotSupported)
SPRINGFS_DEFINE_ERR(WrongType)
SPRINGFS_DEFINE_ERR(Busy)
SPRINGFS_DEFINE_ERR(Stale)
SPRINGFS_DEFINE_ERR(Corrupted)
SPRINGFS_DEFINE_ERR(OutOfRange)
SPRINGFS_DEFINE_ERR(TimedOut)
SPRINGFS_DEFINE_ERR(ConnectionLost)
SPRINGFS_DEFINE_ERR(DeadObject)
#undef SPRINGFS_DEFINE_ERR

// Result<T> is either a value of type T or an error Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit from value: `return 42;`
  Result(T value) : state_(std::move(value)) {}
  // Implicit from error Status: `return ErrNotFound(...);`
  Result(Status status) : state_(std::move(status)) {
    assert(!std::get<Status>(state_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(state_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(state_);
  }
  T&& take_value() {
    assert(ok());
    return std::move(std::get<T>(state_));
  }

  // The error status; OK if this holds a value.
  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(state_);
  }
  ErrorCode code() const { return status().code(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> state_;
};

// Propagate an error Status from an expression returning Status.
#define RETURN_IF_ERROR(expr)              \
  do {                                     \
    ::springfs::Status _st = (expr);       \
    if (!_st.ok()) {                       \
      return _st;                          \
    }                                      \
  } while (0)

// Assign a Result's value to `lhs` or propagate its error.
// Usage: ASSIGN_OR_RETURN(auto v, SomeCall());
#define ASSIGN_OR_RETURN(lhs, expr)             \
  ASSIGN_OR_RETURN_IMPL_(                       \
      SPRINGFS_CONCAT_(_res_, __LINE__), lhs, expr)
#define ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)  \
  auto tmp = (expr);                            \
  if (!tmp.ok()) {                              \
    return tmp.status();                        \
  }                                             \
  lhs = tmp.take_value()
#define SPRINGFS_CONCAT_(a, b) SPRINGFS_CONCAT2_(a, b)
#define SPRINGFS_CONCAT2_(a, b) a##b

}  // namespace springfs

#endif  // SPRINGFS_SUPPORT_RESULT_H_
