/**
 * @file
 * Tests for the xoshiro256** RNG wrapper.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.hh"

namespace tb {
namespace {

TEST(Random, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Random, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanNearHalf)
{
    Rng rng(8);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

class UniformIntRange
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>>
{
};

TEST_P(UniformIntRange, StaysInBoundsAndHitsEndpoints)
{
    const auto [lo, hi] = GetParam();
    Rng rng(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const std::int64_t v = rng.uniformInt(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
        hit_lo |= v == lo;
        hit_hi |= v == hi;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UniformIntRange,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 0},
                      std::pair<std::int64_t, std::int64_t>{0, 1},
                      std::pair<std::int64_t, std::int64_t>{-5, 5},
                      std::pair<std::int64_t, std::int64_t>{-3, -1},
                      std::pair<std::int64_t, std::int64_t>{0, 255}));

TEST(Random, GaussianMoments)
{
    Rng rng(13);
    const int n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Random, GaussianScaleAndShift)
{
    Rng rng(17);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

// The noise kernel draws its pairs through hasSpare(),
// drawPairUniforms() and boxMuller(); together they must give
// gaussian()'s stream bit for bit and leave the generator where
// gaussian() leaves it.
TEST(Random, PairAccessorsFollowTheGaussianStream)
{
    Rng a(31), b(31);
    EXPECT_FALSE(a.hasSpare());
    for (int i = 0; i < 10000; ++i) {
        const double c = a.gaussian();
        EXPECT_TRUE(a.hasSpare());
        const double s = a.gaussian();
        EXPECT_FALSE(a.hasSpare());

        const auto [u1, u2] = b.drawPairUniforms();
        EXPECT_FALSE(b.hasSpare());
        ASSERT_GT(u1, 0.0);
        ASSERT_LT(u1, 1.0);
        ASSERT_GE(u2, 0.0);
        ASSERT_LT(u2, 1.0);
        // Multiples of 2^-53, which the kernel's angle reduction needs.
        ASSERT_EQ(std::ldexp(u2, 53), std::floor(std::ldexp(u2, 53)));
        ASSERT_EQ(std::ldexp(u1, 53), std::floor(std::ldexp(u1, 53)));
        const auto [bc, bs] = Rng::boxMuller(u1, u2);
        ASSERT_EQ(bc, c) << "pair " << i;
        ASSERT_EQ(bs, s) << "pair " << i;
    }
    EXPECT_EQ(a(), b());
}

TEST(Random, SplitStreamsAreIndependent)
{
    Rng parent(19);
    Rng child1 = parent.split();
    Rng child2 = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (child1() == child2())
            ++same;
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace tb
