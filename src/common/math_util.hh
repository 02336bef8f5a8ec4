/**
 * @file
 * Small numeric helpers shared by the simulator and the kernels.
 */

#ifndef TRAINBOX_COMMON_MATH_UTIL_HH
#define TRAINBOX_COMMON_MATH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace tb {

/** Clamp @p v into [lo, hi]. */
template <typename T>
constexpr T
clamp(T v, T lo, T hi)
{
    return std::min(std::max(v, lo), hi);
}

/**
 * Round @p v half away from zero into a byte, saturating: the value of
 * `clamp(static_cast<int>(std::lround(v)), 0, 255)` wherever lround's
 * result fits an int, without the libm call.
 *
 * On [0.5, 254.5) the sum v + 0.5 is exact or rounds onto a
 * non-integer, so truncating it rounds v. Below 0.5 the test is on v,
 * not on the sum: 0.5 - 2^-54 plus 0.5 rounds up to 1. From 254.5 up
 * the sum is at least 255, so the min saturates it, +inf included; so
 * does |v| >= 2^31, which lround's long wrapped through int. NaN gives
 * 0. A float converts to double exactly, so it rounds as lroundf does.
 */
inline std::uint8_t
roundToByte(double v)
{
    if (!(v >= 0.5))
        return 0;
    return static_cast<std::uint8_t>(
        static_cast<int>(std::min(v + 0.5, 255.0)));
}

/** True when |a - b| <= tol * max(1, |a|, |b|). */
inline bool
approxEqual(double a, double b, double tol = 1e-9)
{
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tol * scale;
}

/** Arithmetic mean of a non-empty vector. */
inline double
mean(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** Geometric mean of a non-empty vector of positive values. */
inline double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Round up to the next power of two (returns 1 for 0). */
inline std::uint64_t
nextPow2(std::uint64_t x)
{
    if (x <= 1)
        return 1;
    --x;
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    x |= x >> 32;
    return x + 1;
}

/** True when x is a power of two (and nonzero). */
inline bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Integer ceiling division for positive operands. */
template <typename T>
constexpr T
divCeil(T a, T b)
{
    return (a + b - 1) / b;
}

} // namespace tb

#endif // TRAINBOX_COMMON_MATH_UTIL_HH
