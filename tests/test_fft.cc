/**
 * @file
 * Tests for the FFT against the naive-DFT oracle and analytic identities.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "prep/audio/fft.hh"

namespace tb {
namespace audio {
namespace {

class FftSize : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftSize, MatchesNaiveDft)
{
    const std::size_t n = GetParam();
    Rng rng(n);
    std::vector<Complex> data(n);
    for (auto &c : data)
        c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};

    const std::vector<Complex> expected = dftReference(data);
    std::vector<Complex> actual = data;
    fft(actual);

    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(actual[k].real(), expected[k].real(), 1e-8 * n);
        ASSERT_NEAR(actual[k].imag(), expected[k].imag(), 1e-8 * n);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSize,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 512));

TEST(Fft, InverseRoundTrip)
{
    Rng rng(7);
    std::vector<Complex> data(256);
    for (auto &c : data)
        c = {rng.gaussian(), rng.gaussian()};
    std::vector<Complex> copy = data;
    fft(copy);
    ifft(copy);
    for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_NEAR(copy[i].real(), data[i].real(), 1e-10);
        ASSERT_NEAR(copy[i].imag(), data[i].imag(), 1e-10);
    }
}

TEST(Fft, ParsevalHolds)
{
    Rng rng(11);
    const std::size_t n = 512;
    std::vector<Complex> data(n);
    double time_energy = 0.0;
    for (auto &c : data) {
        c = {rng.gaussian(), 0.0};
        time_energy += std::norm(c);
    }
    fft(data);
    double freq_energy = 0.0;
    for (const auto &c : data)
        freq_energy += std::norm(c);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-8 * time_energy);
}

TEST(Fft, ImpulseIsFlat)
{
    std::vector<Complex> data(64, Complex(0.0, 0.0));
    data[0] = Complex(1.0, 0.0);
    fft(data);
    for (const auto &c : data) {
        EXPECT_NEAR(c.real(), 1.0, 1e-12);
        EXPECT_NEAR(c.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, PureToneHitsOneBin)
{
    const std::size_t n = 128;
    const std::size_t k0 = 5;
    std::vector<Complex> data(n);
    for (std::size_t t = 0; t < n; ++t)
        data[t] = Complex(
            std::cos(2.0 * M_PI * static_cast<double>(k0 * t) /
                     static_cast<double>(n)),
            0.0);
    fft(data);
    for (std::size_t k = 0; k < n; ++k) {
        const double mag = std::abs(data[k]);
        if (k == k0 || k == n - k0)
            EXPECT_NEAR(mag, static_cast<double>(n) / 2.0, 1e-9);
        else
            EXPECT_NEAR(mag, 0.0, 1e-9);
    }
}

TEST(Fft, RealFftZeroPadsToPow2)
{
    std::vector<double> signal(300, 1.0);
    const auto spec = rfft(signal);
    EXPECT_EQ(spec.size(), 512u);
    // DC bin holds the sum.
    EXPECT_NEAR(spec[0].real(), 300.0, 1e-9);
}

TEST(Fft, RealInputHasConjugateSymmetry)
{
    Rng rng(13);
    std::vector<double> signal(256);
    for (auto &s : signal)
        s = rng.gaussian();
    const auto spec = rfft(signal);
    const std::size_t n = spec.size();
    for (std::size_t k = 1; k < n / 2; ++k) {
        ASSERT_NEAR(spec[k].real(), spec[n - k].real(), 1e-9);
        ASSERT_NEAR(spec[k].imag(), -spec[n - k].imag(), 1e-9);
    }
}

/**
 * The FFT as first written, the oracle for the fast one: each
 * butterfly block rebuilds its twiddles by repeated multiplication,
 * and every product goes through std::complex.
 */
void
perBlockTwiddleFft(std::vector<Complex> &a, bool inverse)
{
    const std::size_t n = a.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            2.0 * M_PI / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
        const Complex wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = a[i + k];
                const Complex v = a[i + k + len / 2] * w;
                a[i + k] = u + v;
                a[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (inverse)
        for (auto &x : a)
            x /= static_cast<double>(n);
}

// Bit for bit on every size from 1 to 4096, forward and inverse, on
// complex input and on zero-padded real input as stft() passes it.
TEST(Fft, MatchesPerBlockTwiddleFftBitwise)
{
    for (std::size_t n = 1; n <= 4096; n *= 2) {
        Rng rng(4600 + n);
        std::vector<Complex> complexIn(n), realIn(n, Complex(0.0, 0.0));
        for (auto &c : complexIn)
            c = {rng.gaussian() * 100.0, rng.uniform(-1.0, 1.0)};
        for (std::size_t i = 0; i < n - n / 4; ++i)
            realIn[i] = Complex(rng.uniform(-1.0, 1.0), 0.0);
        for (const auto *data : {&complexIn, &realIn}) {
            for (bool inverse : {false, true}) {
                std::vector<Complex> want = *data, got = *data;
                perBlockTwiddleFft(want, inverse);
                inverse ? ifft(got) : fft(got);
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      n * sizeof(Complex)),
                          0)
                    << "n " << n << (inverse ? " inverse" : " forward")
                    << (data == &realIn ? " real" : " complex");
            }
        }
    }
}

TEST(FftDeath, NonPow2IsFatal)
{
    std::vector<Complex> data(100);
    EXPECT_DEATH(fft(data), "power of two");
}

} // namespace
} // namespace audio
} // namespace tb
