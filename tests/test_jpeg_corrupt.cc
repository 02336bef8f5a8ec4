/**
 * @file
 * Corruption robustness for the JPEG decoder: truncated prefixes and
 * random bit-flips of valid streams must come back as clean decode
 * failures (or valid images), never crashes, hangs, or out-of-bounds
 * accesses. Run under ASan/UBSan via tools/check.sh to make the
 * memory-safety claim machine-checked.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "prep/jpeg/bit_io.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace jpeg {
namespace {

/** Decode must return a verdict; failures must carry a message. */
void
expectGraceful(const std::vector<std::uint8_t> &bytes)
{
    const DecodeResult res = decodeJpeg(bytes);
    if (!res.ok) {
        EXPECT_FALSE(res.error.empty());
    }
}

/** Append a marker segment: 0xFF, the marker, its length, @p payload. */
void
putSegment(std::vector<std::uint8_t> &out, std::uint8_t marker,
           const std::vector<std::uint8_t> &payload)
{
    const std::size_t len = payload.size() + 2;
    out.insert(out.end(), {0xFF, marker, static_cast<std::uint8_t>(len >> 8),
                           static_cast<std::uint8_t>(len & 0xFF)});
    out.insert(out.end(), payload.begin(), payload.end());
}

/**
 * A hand-built baseline stream up to its scan data: quant table 0 of
 * @p quant everywhere, a DC table 0 holding @p dcCategories as 2-bit
 * codes (one 1-bit code when there is one), an AC table 0 whose only
 * code is EOB ("0"), and components of the given sampling bytes, all
 * on tables 0. Append the scan bits, then EOI.
 */
std::vector<std::uint8_t>
handBuiltHeader(int width, int height, std::uint8_t quant,
                const std::vector<std::uint8_t> &samplings,
                const std::vector<std::uint8_t> &dcCategories)
{
    std::vector<std::uint8_t> out = {0xFF, 0xD8};
    std::vector<std::uint8_t> dqt(65, quant);
    dqt[0] = 0x00;
    putSegment(out, 0xDB, dqt);
    std::vector<std::uint8_t> sof = {
        8, static_cast<std::uint8_t>(height >> 8),
        static_cast<std::uint8_t>(height & 0xFF),
        static_cast<std::uint8_t>(width >> 8),
        static_cast<std::uint8_t>(width & 0xFF),
        static_cast<std::uint8_t>(samplings.size())};
    std::vector<std::uint8_t> sos = {
        static_cast<std::uint8_t>(samplings.size())};
    for (std::size_t i = 0; i < samplings.size(); ++i) {
        const auto id = static_cast<std::uint8_t>(i + 1);
        sof.insert(sof.end(), {id, samplings[i], 0});
        sos.insert(sos.end(), {id, 0x00});
    }
    sos.insert(sos.end(), {0, 63, 0});
    putSegment(out, 0xC0, sof);
    std::vector<std::uint8_t> dht(17, 0);
    dht[dcCategories.size() == 1 ? 1 : 2] =
        static_cast<std::uint8_t>(dcCategories.size());
    dht.insert(dht.end(), dcCategories.begin(), dcCategories.end());
    dht.insert(dht.end(), {0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                           0, 0, 0x00});
    putSegment(out, 0xC4, dht);
    putSegment(out, 0xDA, sos);
    return out;
}

// An 8x40000 grayscale stream (10.7 KB) whose every DC difference is
// +2047 under an all-255 quant table: the predictor passes the
// baseline range at the second block and would overflow the int
// product pred * 255 at block 4,115. It used to decode "ok".
TEST(JpegCorrupt, RunawayDcPredictorRejected)
{
    std::vector<std::uint8_t> bytes =
        handBuiltHeader(8, 40000, 255, {0x11}, {11});
    BitWriter bits(bytes);
    for (int block = 0; block < 40000 / 8; ++block) {
        bits.put(0, 1);      // DC category 11
        bits.put(2047, 11);  // difference +2047
        bits.put(0, 1);      // EOB
    }
    bits.flush();
    bytes.insert(bytes.end(), {0xFF, 0xD9});
    EXPECT_EQ(bytes.size() / 100, 107u);
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "DC coefficient outside the baseline range");
}

// Y and Cb at 2x2, Cr at 1x1: the assembler must read Cr through its
// own factors, not Cb's, or it reads past the end of the Cr plane.
// Every block is flat: Cr holds 128 + 80 / 8 and the rest 128.
TEST(JpegCorrupt, ChromaPlanesReadThroughTheirOwnFactors)
{
    std::vector<std::uint8_t> bytes =
        handBuiltHeader(32, 32, 1, {0x22, 0x22, 0x11}, {0, 7});
    BitWriter bits(bytes);
    for (int mcu = 0; mcu < 4; ++mcu) {
        for (int block = 0; block < 8; ++block)
            bits.put(0b000, 3); // Y, Cb: DC category 0, EOB
        if (mcu == 0)
            bits.put(0b01'1010000'0, 10); // Cr: category 7, +80, EOB
        else
            bits.put(0b000, 3);
    }
    bits.flush();
    bytes.insert(bytes.end(), {0xFF, 0xD9});
    const DecodeResult res = decodeJpeg(bytes);
    ASSERT_TRUE(res.ok) << res.error;
    for (std::size_t i = 0; i < res.image.pixels.size(); i += 3) {
        ASSERT_EQ(res.image.pixels[i], 142) << i / 3;     // 128 + 1.402 * 10
        ASSERT_EQ(res.image.pixels[i + 1], 121) << i / 3; // 128 - 7.14
        ASSERT_EQ(res.image.pixels[i + 2], 128) << i / 3;
    }
}

TEST(JpegCorrupt, EveryTruncatedPrefixFailsCleanly)
{
    Rng rng(21);
    const auto bytes = prep::makeSyntheticJpeg(48, 48, rng);
    ASSERT_GT(bytes.size(), 16u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        const DecodeResult res = decodeJpeg(prefix);
        // A strict prefix is missing at least the EOI scan tail; it may
        // decode only if the full scan happens to fit, and must
        // otherwise fail with a message.
        if (!res.ok) {
            EXPECT_FALSE(res.error.empty()) << "prefix length " << len;
        }
    }
}

TEST(JpegCorrupt, SingleBitFlipsNeverCrash)
{
    Rng rng(22);
    const auto base = prep::makeSyntheticJpeg(32, 32, rng);
    // Flip each of 2000 randomly chosen bits, one at a time.
    Rng flip_rng(23);
    for (int i = 0; i < 2000; ++i) {
        auto bytes = base;
        const std::size_t byte = static_cast<std::size_t>(
            flip_rng.uniformInt(
                0, static_cast<std::int64_t>(bytes.size()) - 1));
        const int bit = static_cast<int>(flip_rng.uniformInt(0, 7));
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, MultiBitFlipsNeverCrash)
{
    Rng rng(24);
    const auto base = prep::makeSyntheticJpeg(64, 64, rng);
    Rng flip_rng(25);
    for (int trial = 0; trial < 200; ++trial) {
        auto bytes = base;
        const int flips = static_cast<int>(flip_rng.uniformInt(1, 32));
        for (int i = 0; i < flips; ++i) {
            const std::size_t byte = static_cast<std::size_t>(
                flip_rng.uniformInt(
                    0, static_cast<std::int64_t>(bytes.size()) - 1));
            bytes[byte] ^= static_cast<std::uint8_t>(
                1u << flip_rng.uniformInt(0, 7));
        }
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, RandomGarbageNeverCrashes)
{
    Rng rng(26);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(rng.uniformInt(0, 511)));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        // Half the trials get a valid SOI so the marker loop engages.
        if (trial % 2 == 0 && bytes.size() >= 2) {
            bytes[0] = 0xFF;
            bytes[1] = 0xD8;
        }
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, UndersizedSegmentLengthRejected)
{
    // SOI + DQT whose length field (1) is smaller than the field
    // itself — previously this rewound the cursor.
    const std::vector<std::uint8_t> bytes = {0xFF, 0xD8, 0xFF, 0xDB,
                                             0x00, 0x01, 0xFF, 0xD9};
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, TruncatedDriRejected)
{
    // SOI + DRI claiming 2 payload bytes that the file does not have.
    const std::vector<std::uint8_t> bytes = {0xFF, 0xD8, 0xFF, 0xDD,
                                             0x00, 0x04};
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, HugeFrameDimensionsRejected)
{
    // SOI + SOF0 declaring a 65535 x 65535 frame: must be rejected
    // before any plane allocation, not after ~50 GB of requests.
    const std::vector<std::uint8_t> bytes = {
        0xFF, 0xD8,             // SOI
        0xFF, 0xC0, 0x00, 0x0B, // SOF0, len 11
        0x08,                   // precision
        0xFF, 0xFF,             // height 65535
        0xFF, 0xFF,             // width 65535
        0x01,                   // 1 component
        0x01, 0x11, 0x00,       // id 1, 1x1, quant 0
        0xFF, 0xD9,             // EOI
    };
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, SubsampledLumaDoesNotReadOutOfBounds)
{
    // Y at 1x1 with chroma at 2x2 is syntactically legal; the
    // assembler must index the (quarter-size) Y plane through its
    // sampling factors. Build the header by hand and borrow the scan
    // bytes from a real encode so Huffman decode has data to chew on.
    Rng rng(27);
    const auto donor = prep::makeSyntheticJpeg(16, 16, rng);
    std::vector<std::uint8_t> bytes(donor.begin(), donor.end());
    // Patch the SOF0 sampling factors: find the SOF0 marker.
    for (std::size_t i = 0; i + 9 < bytes.size(); ++i) {
        if (bytes[i] == 0xFF && bytes[i + 1] == 0xC0) {
            // comps start at i+11: id, hv, tq triplets
            bytes[i + 11 + 1] = 0x11; // Y: 1x1
            bytes[i + 11 + 4] = 0x22; // Cb: 2x2
            bytes[i + 11 + 7] = 0x22; // Cr: 2x2
            break;
        }
    }
    expectGraceful(bytes); // must not crash under ASan
}

} // namespace
} // namespace jpeg
} // namespace tb
