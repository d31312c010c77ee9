// Minimal leveled logging. Off by default so benchmarks are unperturbed;
// tests and examples can raise the level per-module.

#ifndef SPRINGFS_SUPPORT_LOGGING_H_
#define SPRINGFS_SUPPORT_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "src/support/result.h"

namespace springfs {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Global threshold; messages below it are discarded.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define SPRINGFS_LOG(level)                                                 \
  if (::springfs::LogLevel::level < ::springfs::GetLogLevel()) {            \
  } else                                                                    \
    ::springfs::internal::LogMessage(::springfs::LogLevel::level, __FILE__, \
                                     __LINE__)                              \
        .stream()

#define LOG_TRACE SPRINGFS_LOG(kTrace)
#define LOG_DEBUG SPRINGFS_LOG(kDebug)
#define LOG_INFO SPRINGFS_LOG(kInfo)
#define LOG_WARN SPRINGFS_LOG(kWarn)
#define LOG_ERROR SPRINGFS_LOG(kError)

// Invariant check that is active in all build types. Used for conditions
// whose violation means internal corruption (never for user input).
#define SPRINGFS_CHECK(cond)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                    \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

// SPRINGFS_CHECK for an expression yielding a Status: aborts with the
// status text unless it is OK. For programs (benches, examples) whose every
// operation must succeed, so that a failed op never silently produces a
// number.
#define SPRINGFS_CHECK_OK(expr)                                           \
  do {                                                                    \
    ::springfs::Status springfs_check_ok_status_ = (expr);                \
    if (!springfs_check_ok_status_.ok()) {                                \
      std::fprintf(stderr, "CHECK_OK failed at %s:%d: %s: %s\n", __FILE__, \
                   __LINE__, #expr,                                       \
                   springfs_check_ok_status_.ToString().c_str());         \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

}  // namespace springfs

#endif  // SPRINGFS_SUPPORT_LOGGING_H_
