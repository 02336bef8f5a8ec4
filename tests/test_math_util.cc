/**
 * @file
 * Tests for the numeric helpers.
 */

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/math_util.hh"

namespace tb {
namespace {

TEST(MathUtil, Clamp)
{
    EXPECT_EQ(clamp(5, 0, 10), 5);
    EXPECT_EQ(clamp(-1, 0, 10), 0);
    EXPECT_EQ(clamp(11, 0, 10), 10);
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

/** The expression roundToByte replaced, where lround's value fits an int. */
int
lroundByte(double v)
{
    return clamp(static_cast<int>(std::lround(v)), 0, 255);
}

// Every float in [0.5, 254.5), about 75M values, against lroundf: on
// this range the helper's v + 0.5 must never round onto an integer.
TEST(MathUtil, RoundToByteMatchesLroundOnEveryFloatInRange)
{
    std::uint32_t lo, hi;
    const float loF = 0.5f, hiF = 254.5f;
    std::memcpy(&lo, &loF, sizeof lo);
    std::memcpy(&hi, &hiF, sizeof hi);
    std::uint64_t mismatches = 0;
    float first = 0.0f;
    for (std::uint32_t bits = lo; bits < hi; ++bits) {
        float f;
        std::memcpy(&f, &bits, sizeof f);
        const int want = clamp(static_cast<int>(std::lround(f)), 0, 255);
        if (roundToByte(f) != want && mismatches++ == 0)
            first = f;
    }
    EXPECT_EQ(hi - lo, 75399168u);
    EXPECT_EQ(mismatches, 0u) << "first at " << first;
}

// Doubles within 4 ulps of every rounding boundary k + 0.5, from -0.5
// to 255.5, and of the ends of the range.
TEST(MathUtil, RoundToByteMatchesLroundAroundEveryHalf)
{
    std::vector<double> centers = {0.0, 0.5, 254.5, 255.0};
    for (int k = -1; k <= 255; ++k)
        centers.push_back(k + 0.5);
    for (double c : centers) {
        double v = c;
        for (int i = 0; i < 4; ++i)
            v = std::nextafter(v, -1e9);
        for (int i = 0; i <= 8; ++i, v = std::nextafter(v, 1e9))
            ASSERT_EQ(roundToByte(v), lroundByte(v)) << std::hexfloat << v;
    }
}

// Where lround's long does not fit an int, or lround has no value, the
// helper saturates: toward 255 for +inf and huge values, 0 for -inf,
// huge negatives and NaN. The old expression wrapped 2^32 + 5 to 5 and
// took +inf to 0.
TEST(MathUtil, RoundToByteSaturatesOutsideInt)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(roundToByte(0.0), 0);
    EXPECT_EQ(roundToByte(-0.0), 0);
    EXPECT_EQ(roundToByte(std::numeric_limits<double>::quiet_NaN()), 0);
    EXPECT_EQ(roundToByte(inf), 255);
    EXPECT_EQ(roundToByte(-inf), 0);
    EXPECT_EQ(roundToByte(std::ldexp(1.0, 31)), 255);
    EXPECT_EQ(roundToByte(std::ldexp(1.0, 32) + 5.0), 255);
    EXPECT_EQ(roundToByte(-std::ldexp(1.0, 32) - 5.0), 0);
    EXPECT_EQ(roundToByte(1e300), 255);
    EXPECT_EQ(roundToByte(-1e300), 0);
    EXPECT_EQ(roundToByte(std::numeric_limits<float>::max()), 255);
}

TEST(MathUtil, ApproxEqual)
{
    EXPECT_TRUE(approxEqual(1.0, 1.0));
    EXPECT_TRUE(approxEqual(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(approxEqual(1.0, 1.001));
    EXPECT_TRUE(approxEqual(1e12, 1e12 + 1.0, 1e-9));
    EXPECT_TRUE(approxEqual(0.0, 0.0));
}

TEST(MathUtil, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({7.0}), 7.0);
}

class Pow2Case
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint64_t>>
{
};

TEST_P(Pow2Case, NextPow2)
{
    const auto [in, expected] = GetParam();
    EXPECT_EQ(nextPow2(in), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Values, Pow2Case,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{0, 1},
                      std::pair<std::uint64_t, std::uint64_t>{1, 1},
                      std::pair<std::uint64_t, std::uint64_t>{2, 2},
                      std::pair<std::uint64_t, std::uint64_t>{3, 4},
                      std::pair<std::uint64_t, std::uint64_t>{5, 8},
                      std::pair<std::uint64_t, std::uint64_t>{1023, 1024},
                      std::pair<std::uint64_t, std::uint64_t>{1024, 1024},
                      std::pair<std::uint64_t, std::uint64_t>{1025,
                                                              2048}));

TEST(MathUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(MathUtil, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(divCeil(1, 8), 1);
    EXPECT_EQ(divCeil(std::size_t{256}, std::size_t{8}), 32u);
}

} // namespace
} // namespace tb
