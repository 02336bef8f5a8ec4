#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace tb {

namespace {
bool quietFlag = false;

void
vemit(const char *prefix, const char *file, int line, const char *fmt,
      va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, " [%s:%d]\n", file, line);
}
} // namespace

std::string
stringPrintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    va_end(again);
    return out;
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
quiet()
{
    return quietFlag;
}

namespace detail {

void
logMessage(LogLevel level, const char *file, int line, const char *fmt, ...)
{
    if (level == LogLevel::Info && quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    vemit(level == LogLevel::Warn ? "warn" : "info", file, line, fmt, args);
    va_end(args);
}

void
logPanic(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vemit("panic", file, line, fmt, args);
    va_end(args);
    std::abort();
}

void
logFatal(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vemit("fatal", file, line, fmt, args);
    va_end(args);
    std::exit(1);
}

} // namespace detail
} // namespace tb
