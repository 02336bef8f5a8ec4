/**
 * @file
 * Tests for the 8x8 DCT pair.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "prep/jpeg/dct.hh"
#include "prep/jpeg/jpeg_common.hh"

namespace tb {
namespace jpeg {
namespace {

TEST(Dct, RoundTripRandomBlocks)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        float in[64], coeff[64], out[64];
        for (auto &v : in)
            v = static_cast<float>(rng.uniform(-128.0, 127.0));
        forwardDct8x8(in, coeff);
        inverseDct8x8(coeff, out);
        for (int i = 0; i < 64; ++i)
            ASSERT_NEAR(out[i], in[i], 1e-3);
    }
}

TEST(Dct, ConstantBlockHasOnlyDc)
{
    float in[64], coeff[64];
    for (auto &v : in)
        v = 100.0f;
    forwardDct8x8(in, coeff);
    // DC = 8 * value with orthonormal scaling.
    EXPECT_NEAR(coeff[0], 800.0f, 1e-3);
    for (int i = 1; i < 64; ++i)
        EXPECT_NEAR(coeff[i], 0.0f, 1e-3);
}

TEST(Dct, EnergyIsPreserved)
{
    // Orthonormal transform: Parseval holds.
    Rng rng(5);
    float in[64], coeff[64];
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-100.0, 100.0));
    forwardDct8x8(in, coeff);
    double e_in = 0.0, e_out = 0.0;
    for (int i = 0; i < 64; ++i) {
        e_in += in[i] * in[i];
        e_out += coeff[i] * coeff[i];
    }
    EXPECT_NEAR(e_out, e_in, 1e-2 * e_in);
}

TEST(Dct, Linearity)
{
    Rng rng(7);
    float a[64], b[64], sum[64], ca[64], cb[64], csum[64];
    for (int i = 0; i < 64; ++i) {
        a[i] = static_cast<float>(rng.uniform(-50.0, 50.0));
        b[i] = static_cast<float>(rng.uniform(-50.0, 50.0));
        sum[i] = a[i] + 2.0f * b[i];
    }
    forwardDct8x8(a, ca);
    forwardDct8x8(b, cb);
    forwardDct8x8(sum, csum);
    for (int i = 0; i < 64; ++i)
        ASSERT_NEAR(csum[i], ca[i] + 2.0f * cb[i], 1e-2);
}

TEST(Dct, HorizontalCosineHitsSingleCoefficient)
{
    // in(x,y) = cos((2x+1) * 3 * pi / 16) excites only (u=3, v=0).
    float in[64], coeff[64];
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            in[y * 8 + x] = std::cos((2.0f * x + 1.0f) * 3.0f *
                                     static_cast<float>(M_PI) / 16.0f);
    forwardDct8x8(in, coeff);
    for (int v = 0; v < 8; ++v)
        for (int u = 0; u < 8; ++u) {
            if (u == 3 && v == 0)
                EXPECT_GT(std::fabs(coeff[v * 8 + u]), 1.0f);
            else
                EXPECT_NEAR(coeff[v * 8 + u], 0.0f, 1e-3);
        }
}

/**
 * The inverse DCT as first written, the oracle for the fast one: each
 * output is one sum, started from 0 and taken over the term index in
 * ascending order, and each term is (alpha * coefficient) * cosine.
 */
void
textbookInverseDct(const float in[64], float out[64])
{
    float cosTab[8][8];
    float alpha[8];
    for (int u = 0; u < 8; ++u) {
        alpha[u] = u == 0 ? std::sqrt(1.0f / 8.0f) : std::sqrt(2.0f / 8.0f);
        for (int x = 0; x < 8; ++x)
            cosTab[u][x] = std::cos((2.0f * x + 1.0f) * u *
                                    static_cast<float>(M_PI) / 16.0f);
    }
    float tmp[64];
    for (int u = 0; u < 8; ++u) {
        for (int y = 0; y < 8; ++y) {
            float acc = 0.0f;
            for (int v = 0; v < 8; ++v)
                acc += alpha[v] * in[v * 8 + u] * cosTab[v][y];
            tmp[y * 8 + u] = acc;
        }
    }
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            float acc = 0.0f;
            for (int u = 0; u < 8; ++u)
                acc += alpha[u] * tmp[y * 8 + u] * cosTab[u][x];
            out[y * 8 + x] = acc;
        }
    }
}

// Bit for bit, signed zeros included: blocks as the decoder builds
// them (quantized integers, mostly zero), dense random floats, and
// an all-zero block.
TEST(Dct, InverseMatchesTextbookSumsBitwise)
{
    Rng rng(4501);
    for (int trial = 0; trial < 3000; ++trial) {
        float in[64] = {};
        if (trial % 3 == 0) {
            const int nonzero = static_cast<int>(rng.uniformInt(0, 64));
            for (int i = 0; i < nonzero; ++i)
                in[rng.uniformInt(0, 63)] = static_cast<float>(
                    rng.uniformInt(-2047, 2047) * rng.uniformInt(1, 255));
        } else if (trial % 3 == 1) {
            for (auto &v : in)
                v = static_cast<float>(rng.uniform(-1024.0, 1024.0));
        } else if (trial > 2) {
            for (auto &v : in)
                v = static_cast<float>(rng.gaussian() * 1e-3);
        }
        float want[64], got[64];
        textbookInverseDct(in, want);
        inverseDct8x8(in, got);
        ASSERT_EQ(std::memcmp(want, got, sizeof want), 0) << "trial "
                                                          << trial;
    }
}

TEST(ZigZag, IsAPermutation)
{
    std::array<bool, 64> seen{};
    for (int k = 0; k < 64; ++k) {
        ASSERT_GE(kZigZag[k], 0);
        ASSERT_LT(kZigZag[k], 64);
        EXPECT_FALSE(seen[kZigZag[k]]);
        seen[kZigZag[k]] = true;
    }
    EXPECT_EQ(kZigZag[0], 0);
    EXPECT_EQ(kZigZag[1], 1);
    EXPECT_EQ(kZigZag[2], 8);
    EXPECT_EQ(kZigZag[63], 63);
}

TEST(QuantTables, QualityScaling)
{
    const auto q50 = scaleQuantTable(kLumaQuant, 50);
    const auto q90 = scaleQuantTable(kLumaQuant, 90);
    const auto q10 = scaleQuantTable(kLumaQuant, 10);
    for (int i = 0; i < 64; ++i) {
        // Quality 50 reproduces the base table.
        EXPECT_EQ(q50[i], kLumaQuant[i]);
        EXPECT_LE(q90[i], q50[i]);
        EXPECT_GE(q10[i], q50[i]);
        EXPECT_GE(q90[i], 1);
        EXPECT_LE(q10[i], 255);
    }
}

TEST(QuantTables, Quality100IsNearLossless)
{
    const auto q = scaleQuantTable(kLumaQuant, 100);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(q[i], 1);
}

} // namespace
} // namespace jpeg
} // namespace tb
