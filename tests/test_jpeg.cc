/**
 * @file
 * End-to-end JPEG codec tests: round-trip fidelity across qualities and
 * shapes, restart markers, grayscale, and malformed-input handling.
 */

#include <gtest/gtest.h>

#include "common/crc32c.hh"
#include "common/random.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/jpeg/jpeg_encoder.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace jpeg {
namespace {

class JpegQuality : public ::testing::TestWithParam<int>
{
};

TEST_P(JpegQuality, RoundTripPsnr)
{
    Rng rng(11);
    const Image img = prep::makeSyntheticImage(128, 128, rng);
    EncoderOptions opts;
    opts.quality = GetParam();
    const auto bytes = encodeJpeg(img, opts);
    const DecodeResult dec = decodeJpeg(bytes);
    ASSERT_TRUE(dec.ok) << dec.error;
    ASSERT_EQ(dec.image.width, img.width);
    ASSERT_EQ(dec.image.height, img.height);
    ASSERT_EQ(dec.image.channels, 3);
    const double quality_psnr = psnr(img, dec.image);
    EXPECT_GT(quality_psnr, GetParam() >= 85 ? 35.0 : 28.0)
        << "quality " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Qualities, JpegQuality,
                         ::testing::Values(30, 50, 75, 85, 95));

TEST(Jpeg, HigherQualityMeansBiggerAndBetter)
{
    Rng rng(13);
    const Image img = prep::makeSyntheticImage(128, 128, rng);
    EncoderOptions lo, hi;
    lo.quality = 40;
    hi.quality = 95;
    const auto lo_bytes = encodeJpeg(img, lo);
    const auto hi_bytes = encodeJpeg(img, hi);
    EXPECT_LT(lo_bytes.size(), hi_bytes.size());
    const double lo_psnr = psnr(img, decodeJpeg(lo_bytes).image);
    const double hi_psnr = psnr(img, decodeJpeg(hi_bytes).image);
    EXPECT_LT(lo_psnr, hi_psnr);
}

class JpegShape
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(JpegShape, OddDimensionsRoundTrip)
{
    const auto [w, h] = GetParam();
    Rng rng(17);
    const Image img = prep::makeSyntheticImage(w, h, rng);
    const auto bytes = encodeJpeg(img);
    const DecodeResult dec = decodeJpeg(bytes);
    ASSERT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.image.width, w);
    EXPECT_EQ(dec.image.height, h);
    // The synthetic generator packs the same number of waves/blobs into
    // any canvas, so tiny images are genuinely high-frequency and
    // compress worse; smooth-content fidelity is covered separately.
    EXPECT_GT(psnr(img, dec.image), std::min(w, h) >= 64 ? 28.0 : 15.0);
}

TEST(Jpeg, SmoothContentIsHighFidelityAtAnySize)
{
    for (int sz : {16, 32, 64, 128}) {
        Image img(sz, sz, 3);
        for (int y = 0; y < sz; ++y)
            for (int x = 0; x < sz; ++x)
                for (int c = 0; c < 3; ++c)
                    img.at(x, y, c) =
                        static_cast<std::uint8_t>(64 + x * 2 + y);
        const DecodeResult dec = decodeJpeg(encodeJpeg(img));
        ASSERT_TRUE(dec.ok);
        EXPECT_GT(psnr(img, dec.image), 40.0) << "size " << sz;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JpegShape,
    ::testing::Values(std::pair<int, int>{16, 16},
                      std::pair<int, int>{17, 16},
                      std::pair<int, int>{37, 23},
                      std::pair<int, int>{8, 64},
                      std::pair<int, int>{255, 33},
                      std::pair<int, int>{1, 1}));

TEST(Jpeg, GrayscaleRoundTrip)
{
    Image gray(64, 48, 1);
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 64; ++x)
            gray.at(x, y, 0) =
                static_cast<std::uint8_t>((x * 3 + y * 2) % 256);
    const auto bytes = encodeJpeg(gray);
    const DecodeResult dec = decodeJpeg(bytes);
    ASSERT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.image.channels, 1);
    EXPECT_GT(psnr(gray, dec.image), 30.0);
}

TEST(Jpeg, RestartMarkersRoundTrip)
{
    Rng rng(19);
    const Image img = prep::makeSyntheticImage(96, 96, rng);
    EncoderOptions opts;
    opts.restartInterval = 3;
    const auto bytes = encodeJpeg(img, opts);
    // The stream must actually contain RST markers.
    int rst_count = 0;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i)
        if (bytes[i] == 0xFF && bytes[i + 1] >= 0xD0 &&
            bytes[i + 1] <= 0xD7)
            ++rst_count;
    EXPECT_GT(rst_count, 0);

    const DecodeResult dec = decodeJpeg(bytes);
    ASSERT_TRUE(dec.ok) << dec.error;
    // Identical fidelity to the non-restart stream.
    const DecodeResult plain = decodeJpeg(encodeJpeg(img));
    EXPECT_NEAR(psnr(img, dec.image), psnr(img, plain.image), 0.2);
}

TEST(Jpeg, FlatImageCompressesExtremelyWell)
{
    Image flat(64, 64, 3);
    for (auto &p : flat.pixels)
        p = 128;
    const auto bytes = encodeJpeg(flat);
    EXPECT_LT(bytes.size(), 1200u);
    const DecodeResult dec = decodeJpeg(bytes);
    ASSERT_TRUE(dec.ok);
    EXPECT_LT(meanAbsDifference(flat, dec.image), 1.0);
}

TEST(Jpeg, RejectsNonJpeg)
{
    const std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02, 0x03};
    const DecodeResult dec = decodeJpeg(junk);
    EXPECT_FALSE(dec.ok);
    EXPECT_NE(dec.error.find("SOI"), std::string::npos);
}

TEST(Jpeg, RejectsEmptyInput)
{
    EXPECT_FALSE(decodeJpeg(nullptr, 0).ok);
}

TEST(Jpeg, RejectsTruncatedStream)
{
    Rng rng(23);
    auto bytes = prep::makeSyntheticJpeg(64, 64, rng);
    bytes.resize(bytes.size() / 3);
    const DecodeResult dec = decodeJpeg(bytes);
    EXPECT_FALSE(dec.ok);
    EXPECT_FALSE(dec.error.empty());
}

TEST(Jpeg, RejectsProgressiveMarker)
{
    // Craft SOI + SOF2 (progressive) header.
    std::vector<std::uint8_t> data = {0xFF, 0xD8, 0xFF, 0xC2,
                                      0x00, 0x08, 8,    0,
                                      16,   0,    16,   1};
    const DecodeResult dec = decodeJpeg(data);
    EXPECT_FALSE(dec.ok);
    EXPECT_NE(dec.error.find("non-baseline"), std::string::npos);
}

TEST(Jpeg, CorruptScanFailsGracefully)
{
    Rng rng(29);
    auto bytes = prep::makeSyntheticJpeg(64, 64, rng);
    // Zero out a chunk in the middle of the scan.
    for (std::size_t i = bytes.size() / 2;
         i < bytes.size() / 2 + 40 && i < bytes.size(); ++i)
        bytes[i] = 0x55;
    const DecodeResult dec = decodeJpeg(bytes);
    // Either a clean error or a decoded (garbled) image — but no crash
    // and dimensions must be sane if it "succeeded".
    if (dec.ok) {
        EXPECT_EQ(dec.image.width, 64);
        EXPECT_EQ(dec.image.height, 64);
    } else {
        EXPECT_FALSE(dec.error.empty());
    }
}

TEST(Jpeg, FuzzRandomCorruptionNeverCrashes)
{
    Rng rng(31);
    const auto base = prep::makeSyntheticJpeg(48, 48, rng);
    for (int trial = 0; trial < 200; ++trial) {
        auto bytes = base;
        const int flips = static_cast<int>(rng.uniformInt(1, 8));
        for (int f = 0; f < flips; ++f) {
            const std::size_t pos = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(bytes.size()) -
                                   1));
            bytes[pos] = static_cast<std::uint8_t>(rng());
        }
        const DecodeResult dec = decodeJpeg(bytes); // must not crash
        if (dec.ok) {
            EXPECT_GT(dec.image.width, 0);
            EXPECT_GT(dec.image.height, 0);
        }
    }
}

/** CRC32C over a decode's verdict, shape, error text and pixels. */
std::uint32_t
decodeDigest(const DecodeResult &d)
{
    const int head[4] = {d.ok ? 1 : 0, d.image.width, d.image.height,
                         d.image.channels};
    std::uint32_t crc = crc32c(head, sizeof head);
    crc = crc32c(d.error.data(), d.error.size(), crc);
    return crc32c(d.image.pixels.data(), d.image.pixels.size(), crc);
}

/** One seeded encode and the digest of its decode. */
struct PinCase
{
    int width, height, channels, quality, restartInterval;
    std::uint32_t digest;
};

/** The case's encoded synthetic image; 1 channel keeps the first. */
std::vector<std::uint8_t>
pinJpeg(const PinCase &c, Rng &rng)
{
    const Image rgb = prep::makeSyntheticImage(c.width, c.height, rng);
    EncoderOptions opts;
    opts.quality = c.quality;
    opts.restartInterval = c.restartInterval;
    if (c.channels == 3)
        return encodeJpeg(rgb, opts);
    Image gray(c.width, c.height, 1);
    for (std::size_t i = 0; i < gray.pixels.size(); ++i)
        gray.pixels[i] = rgb.pixels[3 * i];
    return encodeJpeg(gray, opts);
}

// The digests were taken from the textbook decoder (one IDCT output at
// a time, per-pixel Image::at, std::lround), so any change to the
// decoder's arithmetic or rounding fails here.
TEST(JpegPins, DecodesMatchTheirPins)
{
    const PinCase cases[] = {
        // RGB, 4:2:0: odd sizes, qualities from 1 (every quantizer
        // 255) to 100 (every quantizer 1), restart intervals.
        {256, 256, 3, 85, 0, 0xe9622d14},
        {224, 200, 3, 75, 0, 0xed12f817},
        {37, 23, 3, 50, 0, 0x1fbdd5fe},
        {255, 33, 3, 95, 0, 0xa4792337},
        {17, 16, 3, 30, 0, 0x08befe50},
        {1, 1, 3, 85, 0, 0x0994429c},
        {64, 128, 3, 100, 0, 0x7d168a8b},
        {40, 24, 3, 1, 0, 0xd515ed74},
        {96, 96, 3, 85, 3, 0x71c81e41},
        {61, 45, 3, 70, 7, 0x46cc453d},
        // Grayscale.
        {64, 48, 1, 85, 0, 0x4cf57ad3},
        {33, 17, 1, 100, 0, 0xe364134c},
        {80, 72, 1, 60, 1, 0xb9a304d5},
        {47, 39, 1, 90, 4, 0xaa86ea7a},
    };
    Rng rng(4101);
    for (const PinCase &c : cases) {
        const DecodeResult d = decodeJpeg(pinJpeg(c, rng));
        EXPECT_TRUE(d.ok) << d.error;
        const std::uint32_t got = decodeDigest(d);
        EXPECT_EQ(got, c.digest)
            << c.width << "x" << c.height << "x" << c.channels << " q"
            << c.quality << " rst" << c.restartInterval << ": 0x"
            << std::hex << got;
    }
}

// Seeded corruptions of three streams: each trial overwrites one to
// eight bytes, and the digest folds every trial's verdict, error text
// and pixels, so a changed outcome on any corrupt input fails here.
TEST(JpegPins, CorruptDecodesMatchTheirPins)
{
    const PinCase bases[] = {
        {48, 48, 3, 85, 0, 0x0bca6330},
        {40, 32, 3, 100, 2, 0x32a8138c},
        {32, 24, 1, 75, 1, 0x7ca91fe0},
    };
    const int okPins[] = {207, 149, 100};
    Rng rng(4102);
    for (std::size_t b = 0; b < std::size(bases); ++b) {
        const PinCase &c = bases[b];
        const std::vector<std::uint8_t> base = pinJpeg(c, rng);
        std::uint32_t crc = 0;
        int ok = 0;
        for (int trial = 0; trial < 300; ++trial) {
            auto bytes = base;
            const int writes = static_cast<int>(rng.uniformInt(1, 8));
            for (int i = 0; i < writes; ++i)
                bytes[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(bytes.size()) - 1))] =
                    static_cast<std::uint8_t>(rng());
            const DecodeResult d = decodeJpeg(bytes);
            ok += d.ok;
            const std::uint32_t one = decodeDigest(d);
            crc = crc32c(&one, sizeof one, crc);
        }
        EXPECT_EQ(ok, okPins[b]) << "base " << b;
        EXPECT_EQ(crc, c.digest) << "base " << b << ": 0x" << std::hex
                                 << crc;
    }
}

} // namespace
} // namespace jpeg
} // namespace tb
