#include "prep/image/image_ops.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace tb {
namespace imageops {

Image
crop(const Image &src, int x0, int y0, int w, int h)
{
    fatal_if(x0 < 0 || y0 < 0 || x0 + w > src.width ||
                 y0 + h > src.height || w <= 0 || h <= 0,
             "crop %dx%d@(%d,%d) outside %dx%d image", w, h, x0, y0,
             src.width, src.height);
    Image out(w, h, src.channels);
    // Each output row is one contiguous run of the source row: copy it
    // whole (copy_n, unlike memcpy, is defined for a 0-channel image).
    const std::size_t ch = static_cast<std::size_t>(src.channels);
    const std::size_t row = static_cast<std::size_t>(w) * ch;
    const std::size_t src_row = static_cast<std::size_t>(src.width) * ch;
    const std::uint8_t *in = src.pixels.data() + y0 * src_row + x0 * ch;
    for (int y = 0; y < h; ++y)
        std::copy_n(in + y * src_row, row, out.pixels.data() + y * row);
    return out;
}

Image
randomCrop(const Image &src, int w, int h, Rng &rng)
{
    fatal_if(w > src.width || h > src.height, "crop larger than image");
    const int x0 = static_cast<int>(
        rng.uniformInt(0, src.width - w));
    const int y0 = static_cast<int>(
        rng.uniformInt(0, src.height - h));
    return crop(src, x0, y0, w, h);
}

Image
centerCrop(const Image &src, int w, int h)
{
    fatal_if(w > src.width || h > src.height, "crop larger than image");
    return crop(src, (src.width - w) / 2, (src.height - h) / 2, w, h);
}

Image
mirrorHorizontal(const Image &src)
{
    Image out(src.width, src.height, src.channels);
    const std::size_t ch = static_cast<std::size_t>(src.channels);
    const std::size_t row = static_cast<std::size_t>(src.width) * ch;
    for (int y = 0; y < src.height; ++y) {
        const std::uint8_t *in = src.pixels.data() + y * row;
        std::uint8_t *o = out.pixels.data() + y * row;
        // Output pixel x is input pixel width-1-x, channels in order.
        for (std::size_t x = 0; x < row; x += ch)
            for (std::size_t c = 0; c < ch; ++c)
                o[x + c] = in[row - ch - x + c];
    }
    return out;
}

namespace {

// fdlibm's e_log.c: with u = 2^k (1 + f) and s = f / (2 + f),
// log(1 + f) = f - hfsq + s (hfsq + R), R a polynomial in s^2.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

// fdlibm's k_sin.c and k_cos.c, for angles in [-pi/4, pi/4].
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

/**
 * 2^52 + 2^51: (x + kRoundShift) - kRoundShift is x rounded to the
 * nearest integer for |x| < 2^51, and that integer is the low bits of
 * x + kRoundShift.
 */
constexpr double kRoundShift = 0x1.8p52;

/**
 * The block path's byte is exact where its value lies at least this far
 * from every rounding step k + 0.5. Its normals are within 1e-13 of
 * libm's, so for |stddev| <= kMaxBlockStddev the two values of p +
 * stddev * g differ by under 1e-9, rounding included, and round to the
 * same byte. A block with a value inside the margin (about 2 values per
 * million) is redone through libm.
 */
constexpr double kStepMargin = 1e-6;
constexpr double kMaxBlockStddev = 1e3;

/**
 * Noise the 2 * @p pairs bytes at @p p (pairs <= NoiseBlock::kPairs)
 * with the generator's next @p pairs Box-Muller pairs, as the loop of
 * rng.gaussian() calls would.
 */
void
noisePairs(std::uint8_t *p, std::size_t pairs, double stddev,
           detail::NoiseBlock &b, Rng &rng)
{
    constexpr std::size_t n = detail::NoiseBlock::kPairs;
    for (std::size_t j = 0; j < pairs; ++j)
        std::tie(b.u1[j], b.u2[j]) = rng.drawPairUniforms();
    std::fill(b.u1 + pairs, b.u1 + n, 1.0);
    std::fill(b.u2 + pairs, b.u2 + n, 0.0);
    detail::evaluateNoiseBlock(b);

    std::uint8_t in[2 * n] = {};
    std::uint8_t noised[2 * n];
    std::memcpy(in, p, 2 * pairs);
    // Its sign bit is set once a value lies inside the margin.
    std::uint64_t nearStep = 0;
    for (std::size_t i = 0; i < 2 * n; ++i) {
        const double v = in[i] + stddev * b.g[i];
        const double k = (v + kRoundShift) - kRoundShift;
        nearStep |= std::bit_cast<std::uint64_t>((0.5 - kStepMargin) -
                                                 std::fabs(v - k));
        noised[i] = static_cast<std::uint8_t>(
            static_cast<int>(std::min(std::max(k, 0.0), 255.0)));
    }
    if (nearStep >> 63) {
        for (std::size_t j = 0; j < pairs; ++j) {
            const auto [c, s] = Rng::boxMuller(b.u1[j], b.u2[j]);
            noised[2 * j] = roundToByte(in[2 * j] + (0.0 + stddev * c));
            noised[2 * j + 1] =
                roundToByte(in[2 * j + 1] + (0.0 + stddev * s));
        }
    }
    std::memcpy(p, noised, 2 * pairs);
}

} // namespace

namespace detail {

void
evaluateNoiseBlock(NoiseBlock &b)
{
    constexpr std::size_t n = NoiseBlock::kPairs;
    double mag[n];
    // -2 log u1. fdlibm's reduction: 1 + f is u1's mantissa, halved
    // (and k raised by one) when it is at least about sqrt(2), so that
    // 1 + f lies in [sqrt(2)/2, sqrt(2)); f = x - 1 is exact.
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(b.u1[j]);
        const std::uint64_t mant = bits & 0x000fffffffffffffull;
        const std::uint64_t half =
            (mant + 0x00095f6400000000ull) & 0x0010000000000000ull;
        const double x = std::bit_cast<double>(
            mant | (half ^ 0x3ff0000000000000ull));
        // k, as the double 2^52 + (k + 1023) less 2^52 + 1023.
        const double k =
            std::bit_cast<double>(0x4330000000000000ull |
                                  ((bits >> 52) + (half >> 52))) -
            (0x1p52 + 1023.0);
        const double f = x - 1.0;
        const double s = f / (2.0 + f);
        const double z = s * s;
        const double w = z * z;
        const double r = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7))) +
                         w * (kLg2 + w * (kLg4 + w * kLg6));
        const double hfsq = 0.5 * f * f;
        mag[j] = -2.0 * (k * kLn2Hi -
                         ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f));
    }
    // A loop of its own: sqrt may set errno, so without -fno-math-errno
    // it keeps a branch that would stop the others vectorizing.
    for (std::size_t j = 0; j < n; ++j)
        mag[j] = std::sqrt(mag[j]);
    // (cos, sin)(2 pi u2). 4 u2 = q + r with q the nearest integer and
    // |r| <= 1/2, both exact since u2 is a multiple of 2^-53; the angle
    // is q quarter turns plus a = r pi/2, |a| <= pi/4.
    for (std::size_t j = 0; j < n; ++j) {
        const double t = 4.0 * b.u2[j] + kRoundShift;
        const std::uint64_t q = std::bit_cast<std::uint64_t>(t);
        const double a = (4.0 * b.u2[j] - (t - kRoundShift)) * (M_PI / 2);
        const double z = a * a;
        const double sinA =
            a + a * z *
                    (kS1 +
                     z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)))));
        const double cosA =
            1.0 -
            (0.5 * z -
             z * z *
                 (kC1 +
                  z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6))))));
        // Odd quarters swap sin and cos; cos is negated in quarters 1
        // and 2, sin in quarters 2 and 3.
        const std::uint64_t swap = 0 - (q & 1);
        const std::uint64_t sb = std::bit_cast<std::uint64_t>(sinA);
        const std::uint64_t cb = std::bit_cast<std::uint64_t>(cosA);
        const std::uint64_t cosBits =
            ((cb & ~swap) | (sb & swap)) ^ (((q + 1) & 2) << 62);
        const std::uint64_t sinBits =
            ((sb & ~swap) | (cb & swap)) ^ ((q & 2) << 62);
        b.g[2 * j] = mag[j] * std::bit_cast<double>(cosBits);
        b.g[2 * j + 1] = mag[j] * std::bit_cast<double>(sinBits);
    }
}

} // namespace detail

Image
addGaussianNoise(const Image &src, double stddev, Rng &rng)
{
    Image out = src;
    std::uint8_t *p = out.pixels.data();
    std::uint8_t *const end = p + out.pixels.size();
    // A spare held on entry noises the first byte.
    if (p != end && rng.hasSpare()) {
        *p = roundToByte(*p + rng.gaussian(0.0, stddev));
        ++p;
    }
    if (std::fabs(stddev) <= kMaxBlockStddev) {
        detail::NoiseBlock b;
        while (end - p >= 2) {
            const std::size_t pairs = std::min<std::size_t>(
                (end - p) / 2, detail::NoiseBlock::kPairs);
            noisePairs(p, pairs, stddev, b, rng);
            p += 2 * pairs;
        }
    }
    // The odd last byte; every byte when the stddev is past the block
    // bound, NaN included.
    for (; p != end; ++p)
        *p = roundToByte(*p + rng.gaussian(0.0, stddev));
    return out;
}

Image
resizeBilinear(const Image &src, int w, int h)
{
    fatal_if(w <= 0 || h <= 0, "bad resize target %dx%d", w, h);
    Image out(w, h, src.channels);
    const double sx = static_cast<double>(src.width) / w;
    const double sy = static_cast<double>(src.height) / h;
    for (int y = 0; y < h; ++y) {
        const double fy = (y + 0.5) * sy - 0.5;
        const int y0 = clamp(static_cast<int>(std::floor(fy)), 0,
                             src.height - 1);
        const int y1 = std::min(y0 + 1, src.height - 1);
        const double wy = clamp(fy - y0, 0.0, 1.0);
        for (int x = 0; x < w; ++x) {
            const double fx = (x + 0.5) * sx - 0.5;
            const int x0 = clamp(static_cast<int>(std::floor(fx)), 0,
                                 src.width - 1);
            const int x1 = std::min(x0 + 1, src.width - 1);
            const double wx = clamp(fx - x0, 0.0, 1.0);
            for (int c = 0; c < src.channels; ++c) {
                const double top = (1.0 - wx) * src.at(x0, y0, c) +
                                   wx * src.at(x1, y0, c);
                const double bot = (1.0 - wx) * src.at(x0, y1, c) +
                                   wx * src.at(x1, y1, c);
                out.at(x, y, c) = roundToByte((1.0 - wy) * top + wy * bot);
            }
        }
    }
    return out;
}

float
toBf16(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Round-to-nearest-even on the truncated 16 mantissa bits.
    const std::uint32_t rounding = 0x7FFF + ((bits >> 16) & 1);
    bits = (bits + rounding) & 0xFFFF0000u;
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

std::vector<float>
castToFloatTensor(const Image &src)
{
    // The value depends only on the byte, so round each of the 256
    // possible bytes once.
    float lut[256];
    for (int v = 0; v < 256; ++v)
        lut[v] = toBf16(v / 255.0f);

    const std::size_t ch = static_cast<std::size_t>(src.channels);
    const std::size_t plane = static_cast<std::size_t>(src.width) *
                              src.height;
    std::vector<float> out(plane * ch);
    for (std::size_t c = 0; c < ch; ++c) {
        float *dst = out.data() + c * plane;
        const std::uint8_t *in = src.pixels.data() + c;
        for (std::size_t p = 0; p < plane; ++p)
            dst[p] = lut[in[p * ch]];
    }
    return out;
}

} // namespace imageops
} // namespace tb
