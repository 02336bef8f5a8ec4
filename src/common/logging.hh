/**
 * @file
 * Status/error reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (a simulator bug); aborts.
 * fatal()  — the user asked for something impossible (bad configuration);
 *            exits with an error code.
 * warn()   — something is approximated or suspicious but survivable.
 * inform() — plain status output.
 */

#ifndef TRAINBOX_COMMON_LOGGING_HH
#define TRAINBOX_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tb {

/** Severity of a log message. */
enum class LogLevel { Info, Warn, Fatal, Panic };

namespace detail {

/** Format and emit a message; terminates for Fatal/Panic. */
[[gnu::format(printf, 4, 5)]]
void logMessage(LogLevel level, const char *file, int line,
                const char *fmt, ...);

[[noreturn]]
[[gnu::format(printf, 3, 4)]]
void logPanic(const char *file, int line, const char *fmt, ...);

[[noreturn]]
[[gnu::format(printf, 3, 4)]]
void logFatal(const char *file, int line, const char *fmt, ...);

} // namespace detail

/** printf into a std::string as long as the output needs. */
[[gnu::format(printf, 1, 2)]]
std::string stringPrintf(const char *fmt, ...);

/** Suppress / restore inform() output (tests use this to keep logs quiet). */
void setQuiet(bool quiet);

/** @return true when inform() output is suppressed. */
bool quiet();

#define panic(...) \
    ::tb::detail::logPanic(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::tb::detail::logFatal(__FILE__, __LINE__, __VA_ARGS__)

#define warn(...) \
    ::tb::detail::logMessage(::tb::LogLevel::Warn, __FILE__, __LINE__, \
                             __VA_ARGS__)

#define inform(...) \
    ::tb::detail::logMessage(::tb::LogLevel::Info, __FILE__, __LINE__, \
                             __VA_ARGS__)

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            panic(__VA_ARGS__);                                          \
    } while (0)

/** fatal() unless the condition holds. */
#define fatal_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            fatal(__VA_ARGS__);                                          \
    } while (0)

} // namespace tb

#endif // TRAINBOX_COMMON_LOGGING_HH
