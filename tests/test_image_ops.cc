/**
 * @file
 * Tests for the image formatting/augmentation operators.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "common/crc32c.hh"
#include "common/math_util.hh"
#include "prep/image/image_ops.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace imageops {
namespace {

Image
gradientImage(int w, int h, int c)
{
    Image img(w, h, c);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int ch = 0; ch < c; ++ch)
                img.at(x, y, ch) =
                    static_cast<std::uint8_t>((x + y * 2 + ch * 7) % 256);
    return img;
}

TEST(ImageOps, CropExtractsWindow)
{
    const Image src = gradientImage(32, 24, 3);
    const Image out = crop(src, 5, 7, 10, 8);
    EXPECT_EQ(out.width, 10);
    EXPECT_EQ(out.height, 8);
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 10; ++x)
            for (int c = 0; c < 3; ++c)
                ASSERT_EQ(out.at(x, y, c), src.at(5 + x, 7 + y, c));
}

TEST(ImageOps, CenterCropIsCentered)
{
    const Image src = gradientImage(32, 32, 1);
    const Image out = centerCrop(src, 16, 16);
    EXPECT_EQ(out.at(0, 0, 0), src.at(8, 8, 0));
}

TEST(ImageOps, RandomCropStaysInBounds)
{
    Rng rng(3);
    const Image src = gradientImage(40, 30, 3);
    for (int i = 0; i < 50; ++i) {
        const Image out = randomCrop(src, 24, 24, rng);
        EXPECT_EQ(out.width, 24);
        EXPECT_EQ(out.height, 24);
    }
}

TEST(ImageOps, RandomCropVaries)
{
    Rng rng(5);
    const Image src = gradientImage(256, 256, 3);
    const Image a = randomCrop(src, 224, 224, rng);
    const Image b = randomCrop(src, 224, 224, rng);
    // With a 32x32 offset space, two crops almost surely differ.
    EXPECT_NE(a.pixels, b.pixels);
}

TEST(ImageOps, MirrorIsInvolution)
{
    const Image src = gradientImage(31, 17, 3);
    EXPECT_EQ(mirrorHorizontal(mirrorHorizontal(src)), src);
}

TEST(ImageOps, MirrorFlipsColumns)
{
    const Image src = gradientImage(8, 4, 1);
    const Image out = mirrorHorizontal(src);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 8; ++x)
            ASSERT_EQ(out.at(x, y, 0), src.at(7 - x, y, 0));
}

TEST(ImageOps, NoiseHasRequestedSpread)
{
    Rng rng(7);
    Image flat(64, 64, 1);
    for (auto &p : flat.pixels)
        p = 128;
    const Image noisy = addGaussianNoise(flat, 5.0, rng);
    const double mad = meanAbsDifference(flat, noisy);
    // E|N(0,5)| = 5 * sqrt(2/pi) ~ 3.99.
    EXPECT_NEAR(mad, 3.99, 0.4);
}

// With a stddev far past the byte range every noised byte saturates
// toward its draw's sign. lround's long used to wrap through int, so a
// bright pixel could turn black (or a dark one white), and +inf gave 0.
TEST(ImageOps, HugeNoiseSaturatesTowardItsSign)
{
    Image src(19, 7, 3);
    for (std::size_t i = 0; i < src.pixels.size(); ++i)
        src.pixels[i] = static_cast<std::uint8_t>(i * 37);
    for (double stddev : {1e12, std::numeric_limits<double>::infinity()}) {
        Rng rng(4303);
        Rng replay = rng;
        const Image out = addGaussianNoise(src, stddev, rng);
        for (std::size_t i = 0; i < out.pixels.size(); ++i) {
            const double draw = replay.gaussian(0.0, stddev);
            ASSERT_EQ(out.pixels[i], draw > 0.0 ? 255 : 0)
                << "byte " << i << ", stddev " << stddev;
        }
    }
}

TEST(ImageOps, ZeroNoiseIsIdentity)
{
    Rng rng(9);
    const Image src = gradientImage(16, 16, 3);
    EXPECT_EQ(addGaussianNoise(src, 0.0, rng), src);
}

std::uint32_t
pixelDigest(const Image &img)
{
    const int head[3] = {img.width, img.height, img.channels};
    return crc32c(img.pixels.data(), img.pixels.size(),
                  crc32c(head, sizeof head));
}

// Pinned from the std::lround rounding: stddevs from sub-pixel to far
// past both clamps, on an odd byte count (so calls alternate between
// starting on a fresh pair and on the generator's spare), starting
// with a spare held. Each digest also covers the generator's next draw,
// so the number of draws a call takes is pinned too.
TEST(ImageOps, NoiseMatchesItsPins)
{
    Image src(37, 23, 3);
    for (std::size_t i = 0; i < src.pixels.size(); ++i)
        src.pixels[i] = static_cast<std::uint8_t>(i * 7 + 3);
    ASSERT_EQ(src.pixels.size() % 2, 1u);
    const struct
    {
        double stddev;
        std::uint32_t digest;
    } cases[] = {{0.5, 0x4292f4e7}, {4.0, 0x47614b6b},
                 {40.0, 0xa5a69df1}, {300.0, 0x5010b6a7},
                 {4.0, 0x5f5174f7}};
    Rng rng(4301);
    rng.gaussian(); // the first call leaves a spare behind
    for (const auto &c : cases) {
        const Image out = addGaussianNoise(src, c.stddev, rng);
        const double next = rng.gaussian();
        const std::uint32_t got =
            crc32c(&next, sizeof next, pixelDigest(out));
        EXPECT_EQ(got, c.digest)
            << "stddev " << c.stddev << ": 0x" << std::hex << got;
    }
}

// addGaussianNoise as one libm draw per byte, the loop the block path
// must reproduce.
Image
libmNoise(const Image &src, double stddev, Rng &rng)
{
    Image out = src;
    for (auto &p : out.pixels)
        p = roundToByte(p + rng.gaussian(0.0, stddev));
    return out;
}

// The block path against the libm loop, bit for bit: byte counts on
// both sides of the 64-pair block edges and a full 224x224x3 item, with
// and without a spare held on entry, stddevs of both signs up to the
// block bound and past it (there every byte takes the libm loop), on
// bytes that cover 0..255 so the noise reaches both clamps. The
// generator's next two draws pin where each call leaves it.
TEST(ImageOps, NoiseMatchesLibmLoopBitwise)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double stddevs[] = {0.0,  -0.0,  -4.0,  0.5,
                              4.0,  40.0,  300.0, 1e3,
                              std::nextafter(1e3, inf),
                              1e12, inf,   std::nan("")};
    const struct
    {
        int w, h, c;
    } shapes[] = {{0, 0, 3},   {1, 1, 1},  {2, 1, 1},   {127, 1, 1},
                  {128, 1, 1}, {43, 1, 3}, {130, 1, 1}, {224, 224, 3}};
    bool clampedLow = false, clampedHigh = false;
    for (const auto &shape : shapes) {
        Image src(shape.w, shape.h, shape.c);
        for (std::size_t i = 0; i < src.pixels.size(); ++i)
            src.pixels[i] = static_cast<std::uint8_t>(i * 7 + 3);
        for (bool spare : {false, true}) {
            for (double stddev : stddevs) {
                Rng rng(4305);
                if (spare)
                    rng.gaussian();
                Rng ref = rng;
                const Image got = addGaussianNoise(src, stddev, rng);
                const Image want = libmNoise(src, stddev, ref);
                const auto where = std::mismatch(
                    want.pixels.begin(), want.pixels.end(),
                    got.pixels.begin());
                ASSERT_TRUE(where.first == want.pixels.end())
                    << src.pixels.size() << " bytes, spare " << spare
                    << ", stddev " << stddev << ": byte "
                    << (where.first - want.pixels.begin()) << " is "
                    << int(*where.second) << ", want "
                    << int(*where.first);
                for (int draw = 0; draw < 2; ++draw) {
                    const double a = rng.gaussian(), b = ref.gaussian();
                    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                        << src.pixels.size() << " bytes, spare " << spare
                        << ", stddev " << stddev << ", draw " << draw;
                }
                if (std::fabs(stddev) <= 1e3) {
                    for (std::size_t i = 0; i < got.pixels.size(); ++i) {
                        clampedLow |= got.pixels[i] == 0 &&
                                      src.pixels[i] != 0;
                        clampedHigh |= got.pixels[i] == 255 &&
                                       src.pixels[i] != 255;
                    }
                }
            }
        }
    }
    EXPECT_TRUE(clampedLow);
    EXPECT_TRUE(clampedHigh);
}

// The exact bytes rest on evaluateNoiseBlock's normals staying within
// 1e-13 of Rng::boxMuller's (image_ops.cc's kStepMargin). 10^7 seeded
// pairs, then the edges: u1 at the smallest and largest values a draw
// takes (the log reduction's extreme exponents, and f near 0), and u2
// within a few draw steps of every eighth of a turn, where the angle
// reduction changes quarter and the polynomials reach |a| = pi/4.
TEST(ImageOps, NoiseBlockNormalsStayNearLibm)
{
    constexpr std::size_t kPairs = detail::NoiseBlock::kPairs;
    detail::NoiseBlock b;
    std::size_t fill = 0, pairs = 0;
    double maxErr = 0.0;
    auto check = [&] {
        std::fill(b.u1 + fill, b.u1 + kPairs, 1.0);
        std::fill(b.u2 + fill, b.u2 + kPairs, 0.0);
        detail::evaluateNoiseBlock(b);
        for (std::size_t j = 0; j < fill; ++j) {
            const auto [c, s] = Rng::boxMuller(b.u1[j], b.u2[j]);
            const double err = std::max(std::fabs(b.g[2 * j] - c),
                                        std::fabs(b.g[2 * j + 1] - s));
            if (!(err <= maxErr)) {
                maxErr = err;
                if (!(err <= 1e-13))
                    ADD_FAILURE() << "u1 " << b.u1[j] << ", u2 " << b.u2[j]
                                  << ": error " << err;
            }
        }
        pairs += fill;
        fill = 0;
    };
    auto add = [&](double u1, double u2) {
        b.u1[fill] = u1;
        b.u2[fill] = u2;
        if (++fill == kPairs)
            check();
    };

    Rng rng(4306);
    while (pairs < 10'000'000) {
        for (fill = 0; fill < kPairs; ++fill)
            std::tie(b.u1[fill], b.u2[fill]) = rng.drawPairUniforms();
        check();
    }
    const double step = 0x1p-53;
    for (int j = 1; j <= 1 << 14; ++j) {
        for (double u1 : {j * step, 1.0 - j * step}) {
            add(u1, rng.uniform());
            add(u1, (j % 8) / 8.0);
        }
    }
    for (int k = 0; k <= 8; ++k) {
        for (int d = -4; d <= 4; ++d) {
            const double u2 = k / 8.0 + d * step;
            if (u2 < 0.0 || u2 >= 1.0)
                continue;
            for (double u1 : {step, 0.5, 1.0 - step})
                add(u1, u2);
            for (int i = 0; i < 4096; ++i)
                add(rng.drawPairUniforms().first, u2);
        }
    }
    check();
    EXPECT_GE(pairs, 10'000'000u);
    EXPECT_LE(maxErr, 1e-13);
    RecordProperty("max_error", ::testing::PrintToString(maxErr));
}

// Pinned from the std::lround rounding, like the noise above.
TEST(ImageOps, SyntheticAndResizedImagesMatchTheirPins)
{
    Rng rng(4302);
    const Image syn = prep::makeSyntheticImage(61, 47, rng);
    const struct
    {
        Image img;
        std::uint32_t digest;
    } cases[] = {{syn, 0x8a74c02a},
                 {resizeBilinear(syn, 29, 83), 0xa4052245},
                 {resizeBilinear(syn, 128, 96), 0x442c3837},
                 {resizeBilinear(gradientImage(16, 9, 1), 7, 5),
                  0x56201095}};
    for (const auto &c : cases) {
        const std::uint32_t got = pixelDigest(c.img);
        EXPECT_EQ(got, c.digest) << c.img.width << "x" << c.img.height
                                 << ": 0x" << std::hex << got;
    }
}

TEST(ImageOps, ResizeIdentity)
{
    const Image src = gradientImage(20, 20, 3);
    const Image out = resizeBilinear(src, 20, 20);
    EXPECT_LT(meanAbsDifference(src, out), 0.5);
}

TEST(ImageOps, ResizeDownAndUp)
{
    const Image src = gradientImage(32, 32, 3);
    const Image small = resizeBilinear(src, 16, 16);
    EXPECT_EQ(small.width, 16);
    const Image back = resizeBilinear(small, 32, 32);
    // Smooth gradient survives a down/up cycle approximately.
    EXPECT_LT(meanAbsDifference(src, back), 8.0);
}

TEST(ImageOps, CastTensorShapeAndRange)
{
    const Image src = gradientImage(8, 6, 3);
    const std::vector<float> t = castToFloatTensor(src);
    EXPECT_EQ(t.size(), 8u * 6u * 3u);
    for (float v : t) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
    // CHW layout: first plane is channel 0.
    EXPECT_NEAR(t[0], toBf16(src.at(0, 0, 0) / 255.0f), 1e-6);
    EXPECT_NEAR(t[8 * 6], toBf16(src.at(0, 0, 1) / 255.0f), 1e-6);
}

// crop, mirrorHorizontal and castToFloatTensor index the pixel rows
// directly; they must match per-pixel loops through the bounds-checked
// at(). Odd widths, 1 and 3 channels, windows touching every edge, and
// every byte value for the cast.
TEST(ImageOps, RowKernelsMatchAtReference)
{
    for (int channels : {1, 3}) {
        const int w = 37, h = 21;
        Image src(w, h, channels);
        for (std::size_t i = 0; i < src.pixels.size(); ++i)
            src.pixels[i] = static_cast<std::uint8_t>(i * 7 + 3);

        struct Window
        {
            int x0, y0, w, h;
        };
        for (const Window &win :
             {Window{0, 0, 5, 4}, Window{w - 6, h - 3, 6, 3},
              Window{0, h - 1, w, 1}, Window{w - 1, 0, 1, h},
              Window{0, 0, w, h}, Window{3, 2, 11, 9}}) {
            Image want(win.w, win.h, channels);
            for (int y = 0; y < win.h; ++y)
                for (int x = 0; x < win.w; ++x)
                    for (int c = 0; c < channels; ++c)
                        want.at(x, y, c) =
                            src.at(win.x0 + x, win.y0 + y, c);
            EXPECT_EQ(crop(src, win.x0, win.y0, win.w, win.h), want)
                << win.w << "x" << win.h << "@(" << win.x0 << ","
                << win.y0 << "), " << channels << " channels";
        }

        Image mirrored(w, h, channels);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                for (int c = 0; c < channels; ++c)
                    mirrored.at(x, y, c) = src.at(w - 1 - x, y, c);
        EXPECT_EQ(mirrorHorizontal(src), mirrored) << channels;

        std::vector<float> cast;
        for (int c = 0; c < channels; ++c)
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    cast.push_back(toBf16(src.at(x, y, c) / 255.0f));
        const std::vector<float> got = castToFloatTensor(src);
        ASSERT_EQ(got.size(), cast.size());
        EXPECT_EQ(std::memcmp(got.data(), cast.data(),
                              cast.size() * sizeof(float)),
                  0)
            << channels;
    }
}

TEST(ImageOps, Bf16RoundingLosesLowMantissa)
{
    EXPECT_EQ(toBf16(1.0f), 1.0f);
    EXPECT_EQ(toBf16(0.0f), 0.0f);
    const float v = 0.1234567f;
    const float r = toBf16(v);
    EXPECT_NEAR(r, v, 0.001f);
    EXPECT_EQ(toBf16(r), r); // idempotent
}

TEST(ImageOpsDeath, OutOfBoundsCropIsFatal)
{
    const Image src = gradientImage(16, 16, 3);
    EXPECT_DEATH(crop(src, 10, 10, 10, 10), "crop");
}

TEST(ImagePipeline, PreparesTensorFromJpeg)
{
    Rng rng(21);
    const auto bytes = prep::makeSyntheticJpeg(256, 256, rng);
    prep::ImagePrepPipeline pipe;
    const prep::PreparedImage out = pipe.prepare(bytes, rng);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.width, 224);
    EXPECT_EQ(out.height, 224);
    EXPECT_EQ(out.channels, 3);
    EXPECT_EQ(out.tensor.size(), 224u * 224u * 3u);
}

// The whole chain, as a prep worker runs it: decode, crop, mirror,
// noise and cast of four 256x256 items, folded into one digest.
TEST(ImagePipeline, PreparedTensorsMatchTheirPin)
{
    Rng rng(4303);
    const prep::ImagePrepPipeline pipe;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
        const auto bytes = prep::makeSyntheticJpeg(256, 256, rng);
        const prep::PreparedImage out = pipe.prepare(bytes, rng);
        ASSERT_TRUE(out.ok) << out.error;
        crc = crc32c(out.tensor.data(), out.tensor.size() * sizeof(float),
                     crc);
    }
    EXPECT_EQ(crc, 0x2fc1551fu) << "0x" << std::hex << crc;
}

TEST(ImagePipeline, AugmentationVariesOutput)
{
    Rng item_rng(23);
    const auto bytes = prep::makeSyntheticJpeg(256, 256, item_rng);
    prep::ImagePrepPipeline pipe;
    Rng rng_a(1), rng_b(2);
    const auto a = pipe.prepare(bytes, rng_a);
    const auto b = pipe.prepare(bytes, rng_b);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_NE(a.tensor, b.tensor);
}

TEST(ImagePipeline, NoAugmentIsDeterministic)
{
    Rng item_rng(25);
    const auto bytes = prep::makeSyntheticJpeg(256, 256, item_rng);
    prep::ImagePrepConfig cfg;
    cfg.augment = false;
    prep::ImagePrepPipeline pipe(cfg);
    Rng rng_a(1), rng_b(2);
    const auto a = pipe.prepare(bytes, rng_a);
    const auto b = pipe.prepare(bytes, rng_b);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.tensor, b.tensor);
}

TEST(ImagePipeline, RejectsTooSmallImages)
{
    Rng rng(27);
    const auto bytes = prep::makeSyntheticJpeg(64, 64, rng);
    prep::ImagePrepPipeline pipe;
    const auto out = pipe.prepare(bytes, rng);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("smaller"), std::string::npos);
}

// A bad knob fails each item with an "image:" error, which the executor
// quarantines. Before the screen, a zero crop ended the process in
// crop()'s fatal check, an infinite stddev saturated every byte and a
// NaN one skipped the noise.
TEST(ImagePipeline, RejectsBadConfig)
{
    Rng item_rng(31);
    const auto bytes = prep::makeSyntheticJpeg(64, 64, item_rng);
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    auto config = [](auto edit) {
        prep::ImagePrepConfig cfg;
        cfg.cropWidth = cfg.cropHeight = 32;
        edit(cfg);
        return cfg;
    };
    using Cfg = prep::ImagePrepConfig;
    const Cfg bad[] = {
        config([](Cfg &c) { c.cropWidth = 0; }),
        config([](Cfg &c) { c.cropHeight = -1; }),
        config([](Cfg &c) { c.mirrorProbability = nan; }),
        config([](Cfg &c) { c.mirrorProbability = -0.1; }),
        config([](Cfg &c) { c.mirrorProbability = 1.5; }),
        config([](Cfg &c) { c.noiseStddev = -1.0; }),
        config([](Cfg &c) { c.noiseStddev = inf; }),
        config([](Cfg &c) { c.noiseStddev = nan; }),
    };
    for (const Cfg &cfg : bad) {
        Rng rng(33);
        const auto out = prep::ImagePrepPipeline(cfg).prepare(bytes, rng);
        EXPECT_FALSE(out.ok);
        EXPECT_EQ(out.error.rfind("image: ", 0), 0u) << out.error;
    }
    // The edges of each range still run.
    const Cfg edges[] = {
        config([](Cfg &c) { c.mirrorProbability = 0.0; }),
        config([](Cfg &c) { c.mirrorProbability = 1.0; }),
        config([](Cfg &c) { c.noiseStddev = 0.0; }),
    };
    for (const Cfg &cfg : edges) {
        Rng rng(33);
        const auto out = prep::ImagePrepPipeline(cfg).prepare(bytes, rng);
        EXPECT_TRUE(out.ok) << out.error;
    }
}

TEST(ImagePipeline, RejectsCorruptItems)
{
    prep::ImagePrepPipeline pipe;
    Rng rng(29);
    const std::vector<std::uint8_t> junk(100, 0x42);
    const auto out = pipe.prepare(junk, rng);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("decode"), std::string::npos);
}

} // namespace
} // namespace imageops
} // namespace tb
