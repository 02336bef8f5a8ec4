/**
 * @file
 * Image formatting and augmentation operators (Fig 4 / Fig 17 engines):
 * crop, mirror, gaussian noise, bilinear resize, and the char -> bf16
 * cast that produces the tensor loaded into the accelerator.
 */

#ifndef TRAINBOX_PREP_IMAGE_IMAGE_OPS_HH
#define TRAINBOX_PREP_IMAGE_IMAGE_OPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "prep/image/image.hh"

namespace tb {
namespace imageops {

/**
 * Crop a WxH window at (x0, y0). The window is checked once, up front
 * (fatal() if it leaves the image); each output row is then one block
 * copy.
 */
Image crop(const Image &src, int x0, int y0, int w, int h);

/** Random crop of the given size (augmentation, §III-D). */
Image randomCrop(const Image &src, int w, int h, Rng &rng);

/** Center crop. */
Image centerCrop(const Image &src, int w, int h);

/**
 * Horizontal mirror (the paper's flip augmentation example). The
 * image's own shape bounds every access, so the rows are indexed
 * directly rather than through the checked Image::at().
 */
Image mirrorHorizontal(const Image &src);

/**
 * Add clamped gaussian noise with the given stddev: each byte p, in
 * order, becomes roundToByte(p + rng.gaussian(0.0, stddev)). The bytes
 * and the generator's state afterwards match that loop's bit for bit;
 * the pairs of draws are evaluated in blocks (detail::NoiseBlock), and
 * only a value that lands near a rounding step goes through libm.
 */
Image addGaussianNoise(const Image &src, double stddev, Rng &rng);

/** Bilinear resize. */
Image resizeBilinear(const Image &src, int w, int h);

/**
 * Cast to a normalized float tensor in [0, 1], CHW layout, rounded
 * through bf16 (the accelerator's input precision — the type-casting
 * data amplification of §III-C). Each value is toBf16(byte / 255.0f),
 * looked up from a 256-entry table.
 */
std::vector<float> castToFloatTensor(const Image &src);

/** Round a float through bf16 (truncate mantissa to 8 bits, RNE). */
float toBf16(float v);

namespace detail {

/**
 * One block of addGaussianNoise: the uniforms of kPairs Box-Muller
 * pairs, as Rng::drawPairUniforms draws them, and their normals.
 */
struct NoiseBlock
{
    static constexpr std::size_t kPairs = 64;

    double u1[kPairs];    ///< in (0, 1]; 1 gives normals of 0
    double u2[kPairs];    ///< in [0, 1), each a multiple of 2^-53
    double g[2 * kPairs]; ///< pair j's cosine normal at 2j, sine at 2j + 1
};

/**
 * Fill @p b.g with the Box-Muller normals of @p b's uniforms. Branch-free
 * polynomials stand in for log, sin and cos, so the compiler vectorizes
 * the loops. Each normal is within 1e-13 of Rng::boxMuller's (the
 * error-bound test in tests/test_image_ops.cc).
 */
void evaluateNoiseBlock(NoiseBlock &b);

} // namespace detail

} // namespace imageops
} // namespace tb

#endif // TRAINBOX_PREP_IMAGE_IMAGE_OPS_HH
