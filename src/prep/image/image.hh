/**
 * @file
 * Minimal interleaved 8-bit image container used by the functional data
 * preparation pipeline (decode/crop/mirror/noise/cast).
 */

#ifndef TRAINBOX_PREP_IMAGE_IMAGE_HH
#define TRAINBOX_PREP_IMAGE_IMAGE_HH

#include <cstdint>
#include <vector>

namespace tb {

/** Row-major, channel-interleaved 8-bit image. */
struct Image
{
    int width = 0;
    int height = 0;
    int channels = 0;
    std::vector<std::uint8_t> pixels;

    Image() = default;
    Image(int w, int h, int c);

    /** Pixel accessors; an out-of-range access panics in every build. */
    std::uint8_t at(int x, int y, int c) const;
    std::uint8_t &at(int x, int y, int c);

    std::size_t size() const { return pixels.size(); }
    bool empty() const { return pixels.empty(); }

    /** Equal dimensions and identical pixel data. */
    bool operator==(const Image &o) const = default;
};

/** Mean absolute per-pixel difference between two same-shape images. */
double meanAbsDifference(const Image &a, const Image &b);

/** PSNR (dB) between two same-shape images; inf for identical. */
double psnr(const Image &a, const Image &b);

} // namespace tb

#endif // TRAINBOX_PREP_IMAGE_IMAGE_HH
