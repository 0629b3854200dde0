#include "common/log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/units.h"

namespace catapult {

LogLevel Logger::level_ = LogLevel::kWarn;

namespace {

const char* LevelName(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
      case LogLevel::kOff: return "OFF";
    }
    return "?";
}

}  // namespace

void Logger::Write(LogLevel level, const std::string& component,
                   const std::string& message) {
    if (level_ > level) return;
    std::fprintf(stderr, "[%-5s] %s: %s\n", LevelName(level),
                 component.c_str(), message.c_str());
}

void FatalMisuse(const char* format, ...) {
    std::va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::abort();
}

std::string FormatTime(Time t) {
    char buf[64];
    using namespace time_literals;
    if (t >= kSecond) {
        std::snprintf(buf, sizeof buf, "%.3f s", ToSeconds(t));
    } else if (t >= kMillisecond) {
        std::snprintf(buf, sizeof buf, "%.3f ms", ToSeconds(t) * 1e3);
    } else if (t >= kMicrosecond) {
        std::snprintf(buf, sizeof buf, "%.3f us", ToMicroseconds(t));
    } else if (t >= kNanosecond) {
        std::snprintf(buf, sizeof buf, "%.3f ns", ToNanoseconds(t));
    } else {
        std::snprintf(buf, sizeof buf, "%lld ps", static_cast<long long>(t));
    }
    return buf;
}

}  // namespace catapult
