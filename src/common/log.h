// Minimal leveled logging for the simulator.
//
// Components log through a process-global logger; tests and benches set
// the level to keep output clean. Messages are plain lines on stderr so
// bench stdout stays machine-parseable.

#pragma once

#include <sstream>
#include <string>

namespace catapult {

enum class LogLevel {
    kTrace = 0,
    kDebug = 1,
    kInfo = 2,
    kWarn = 3,
    kError = 4,
    kOff = 5,
};

/** Global log configuration. Not thread-safe by design: set once at start. */
class Logger {
  public:
    static LogLevel level() { return level_; }
    static void set_level(LogLevel level) { level_ = level; }

    /** Emit one formatted line if `level` is enabled. */
    static void Write(LogLevel level, const std::string& component,
                      const std::string& message);

  private:
    static LogLevel level_;
};

/**
 * API misuse: print one line on stderr naming the call and the bad
 * value, then abort. Always on — unlike assert(), release builds keep
 * the check.
 */
[[noreturn]] void FatalMisuse(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

namespace internal {

/** Stream-style builder that emits on destruction. */
class LogLine {
  public:
    LogLine(LogLevel level, std::string component)
        : level_(level), component_(std::move(component)) {}
    ~LogLine() { Logger::Write(level_, component_, stream_.str()); }

    LogLine(const LogLine&) = delete;
    LogLine& operator=(const LogLine&) = delete;

    template <typename T>
    LogLine& operator<<(const T& value) {
        stream_ << value;
        return *this;
    }

  private:
    LogLevel level_;
    std::string component_;
    std::ostringstream stream_;
};

}  // namespace internal

}  // namespace catapult

#define CATAPULT_LOG(lvl, component)                                 \
    if (::catapult::Logger::level() <= (lvl))                        \
    ::catapult::internal::LogLine((lvl), (component))

#define LOG_TRACE(component) CATAPULT_LOG(::catapult::LogLevel::kTrace, component)
#define LOG_DEBUG(component) CATAPULT_LOG(::catapult::LogLevel::kDebug, component)
#define LOG_INFO(component) CATAPULT_LOG(::catapult::LogLevel::kInfo, component)
#define LOG_WARN(component) CATAPULT_LOG(::catapult::LogLevel::kWarn, component)
#define LOG_ERROR(component) CATAPULT_LOG(::catapult::LogLevel::kError, component)
