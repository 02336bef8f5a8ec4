#include "prep/audio/fft.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace tb {
namespace audio {

namespace {

void
fftCore(std::vector<Complex> &a, bool inverse)
{
    const std::size_t n = a.size();
    fatal_if(!isPow2(n), "FFT size %zu is not a power of two", n);

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }

    // Stage len's twiddles are w_k = wlen^k, built by the recurrence
    // w *= wlen from 1; every block of the stage uses the same ones, so
    // each stage builds them once.
    std::vector<Complex> twiddle(n / 2);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const double angle =
            2.0 * M_PI / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
        const Complex wlen(std::cos(angle), std::sin(angle));
        Complex w(1.0, 0.0);
        for (std::size_t k = 0; k < half; ++k) {
            twiddle[k] = w;
            w *= wlen;
        }
        for (std::size_t i = 0; i < n; i += len) {
            Complex *lo = &a[i];
            Complex *hi = &a[i + half];
            for (std::size_t k = 0; k < half; ++k) {
                // hi[k] * twiddle[k], written out: for finite operands
                // std::complex's product is exactly (ac - bd, ad + bc).
                const double c = twiddle[k].real(), d = twiddle[k].imag();
                const Complex v(hi[k].real() * c - hi[k].imag() * d,
                                hi[k].real() * d + hi[k].imag() * c);
                const Complex u = lo[k];
                lo[k] = u + v;
                hi[k] = u - v;
            }
        }
    }
    if (inverse)
        for (auto &x : a)
            x /= static_cast<double>(n);
}

} // namespace

void
fft(std::vector<Complex> &data)
{
    fftCore(data, false);
}

void
ifft(std::vector<Complex> &data)
{
    fftCore(data, true);
}

std::vector<Complex>
rfft(const std::vector<double> &signal)
{
    const std::size_t n = nextPow2(signal.size());
    std::vector<Complex> data(n, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < signal.size(); ++i)
        data[i] = Complex(signal[i], 0.0);
    fft(data);
    return data;
}

std::vector<Complex>
dftReference(const std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::vector<Complex> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        Complex acc(0.0, 0.0);
        for (std::size_t t = 0; t < n; ++t) {
            const double angle = -2.0 * M_PI * static_cast<double>(k) *
                                 static_cast<double>(t) /
                                 static_cast<double>(n);
            acc += data[t] * Complex(std::cos(angle), std::sin(angle));
        }
        out[k] = acc;
    }
    return out;
}

} // namespace audio
} // namespace tb
