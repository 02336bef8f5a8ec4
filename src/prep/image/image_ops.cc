#include "prep/image/image_ops.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

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

Image
addGaussianNoise(const Image &src, double stddev, Rng &rng)
{
    Image out = src;
    for (auto &p : out.pixels)
        p = roundToByte(p + rng.gaussian(0.0, stddev));
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
