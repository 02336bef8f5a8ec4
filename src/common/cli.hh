/**
 * @file
 * Option values for the command-line programs (the benches,
 * tools/tb_report and the capacity planner): a missing or malformed
 * value exits 2 with a usage line instead of running with a guessed
 * one.
 */

#ifndef TRAINBOX_COMMON_CLI_HH
#define TRAINBOX_COMMON_CLI_HH

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace tb {
namespace cli {

/**
 * Exit 2 over @p value, which option @p option does not take (it
 * @p wants another), with a usage line; @p usage lists the program's
 * arguments.
 */
[[noreturn]] inline void
rejectValue(char **argv, const char *option, const char *value,
            const char *wants, const char *usage)
{
    std::fprintf(stderr, "%s: %s needs %s, not '%s'; usage: %s %s\n",
                 argv[0], option, wants, value, argv[0], usage);
    std::exit(2);
}

/**
 * @p text, the value of @p option (a flag or a positional argument's
 * name), as an integer in [@p lo, @p hi]. Anything else exits 2,
 * saying the option @p wants.
 */
inline long long
integerValue(char **argv, const char *option, const char *text,
             const char *usage, long long lo, long long hi,
             const char *wants)
{
    const char *digits = text[0] == '-' ? text + 1 : text;
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(digits[0])) ||
        *end != '\0' || errno == ERANGE || value < lo || value > hi)
        rejectValue(argv, option, text, wants, usage);
    return value;
}

/**
 * The integer after option argv[i], which moves @p i past it; see
 * integerValue().
 */
inline long long
integerArgument(int argc, char **argv, int &i, const char *usage,
                long long lo, long long hi, const char *wants)
{
    const char *option = argv[i];
    const char *text = i + 1 < argc ? argv[++i] : "";
    return integerValue(argv, option, text, usage, lo, hi, wants);
}

/** The count after option argv[i]: positive, or also 0 when @p zeroOk. */
inline std::size_t
countArgument(int argc, char **argv, int &i, const char *usage,
              bool zeroOk = false)
{
    return static_cast<std::size_t>(integerArgument(
        argc, argv, i, usage, zeroOk ? 0 : 1, LLONG_MAX,
        zeroOk ? "a non-negative integer" : "a positive integer"));
}

/**
 * The probability after option argv[i], which moves @p i past it: a
 * finite number in [0, 1). Anything else exits 2.
 */
inline double
probabilityArgument(int argc, char **argv, int &i, const char *usage)
{
    const char *option = argv[i];
    const char *text = i + 1 < argc ? argv[++i] : "";
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value >= 0.0 && value < 1.0))
        rejectValue(argv, option, text, "a probability in [0, 1)", usage);
    return value;
}

} // namespace cli
} // namespace tb

#endif // TRAINBOX_COMMON_CLI_HH
