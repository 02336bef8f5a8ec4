#include "prep/jpeg/jpeg_decoder.hh"

#include <array>
#include <map>
#include <memory>

#include "common/math_util.hh"
#include "prep/jpeg/bit_io.hh"
#include "prep/jpeg/dct.hh"
#include "prep/jpeg/huffman.hh"
#include "prep/jpeg/jpeg_common.hh"

namespace tb {
namespace jpeg {

namespace {

/**
 * Upper bound on width x height. A fuzzed SOF0 can claim up to
 * 65535 x 65535 (~17 GB per component plane); real inputs this decoder
 * serves are dataset images, so cap allocations at 64 Mpixels.
 */
constexpr std::uint64_t kMaxPixels = 1ull << 26;

/**
 * Largest magnitude of a quantized DC coefficient. At 8-bit precision
 * T.81's DC difference categories stop at 11 bits (Table F.1), because
 * a coefficient lies in [-1024, 1023] (libjpeg's MAX_COEF_BITS = 10)
 * and the difference of two spans 11 bits. The bound here is the
 * 11-bit one, so every conforming stream passes, and it keeps the
 * dequantizing product (|pred| * 255 < 2^20) far inside an int.
 */
constexpr int kMaxDcCoefficient = 2047;

/** EXTEND: map magnitude bits back to a signed value (T.81 F.2.2.1). */
int
extend(int v, int cat)
{
    if (cat == 0)
        return 0;
    return v < (1 << (cat - 1)) ? v - (1 << cat) + 1 : v;
}

struct ComponentState
{
    int id = 0;
    int h = 1, v = 1;
    int quantTable = 0;
    int dcTable = 0, acTable = 0;
    int planeW = 0, planeH = 0;
    std::vector<float> plane;
    int pred = 0;
    /** The scan's tables, looked up once per scan. */
    const std::array<std::uint16_t, 64> *quant = nullptr;
    const HuffmanDecoder *dc = nullptr;
    const HuffmanDecoder *ac = nullptr;
};

struct DecoderState
{
    DecoderState(const std::uint8_t *d, std::size_t s)
        : data(d), size(s)
    {
    }

    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    int width = 0, height = 0;
    int restartInterval = 0;
    std::vector<ComponentState> comps;
    std::map<int, std::array<std::uint16_t, 64>> quant;
    std::map<int, std::unique_ptr<HuffmanDecoder>> dcTables;
    std::map<int, std::unique_ptr<HuffmanDecoder>> acTables;

    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    bool
    need(std::size_t n) const
    {
        return pos + n <= size;
    }

    int
    u8()
    {
        return data[pos++];
    }

    int
    u16()
    {
        const int v = (data[pos] << 8) | data[pos + 1];
        pos += 2;
        return v;
    }
};

bool
parseDqt(DecoderState &st, std::size_t seg_end)
{
    while (st.pos < seg_end) {
        if (!st.need(1))
            return st.fail("truncated DQT");
        const int pq_tq = st.u8();
        const int pq = pq_tq >> 4;
        const int tq = pq_tq & 0x0F;
        if (pq != 0)
            return st.fail("16-bit quant tables unsupported");
        if (!st.need(64))
            return st.fail("truncated DQT table");
        std::array<std::uint16_t, 64> table;
        for (int k = 0; k < 64; ++k)
            table[kZigZag[k]] = static_cast<std::uint16_t>(st.u8());
        st.quant[tq] = table;
    }
    return true;
}

bool
parseDht(DecoderState &st, std::size_t seg_end)
{
    while (st.pos < seg_end) {
        if (!st.need(17))
            return st.fail("truncated DHT");
        const int tc_th = st.u8();
        const int tc = tc_th >> 4;
        const int th = tc_th & 0x0F;
        HuffmanSpec spec;
        int total = 0;
        for (int i = 0; i < 16; ++i) {
            spec.bits[i] = static_cast<std::uint8_t>(st.u8());
            total += spec.bits[i];
        }
        if (!st.need(static_cast<std::size_t>(total)))
            return st.fail("truncated DHT values");
        spec.values.resize(total);
        for (int i = 0; i < total; ++i)
            spec.values[i] = static_cast<std::uint8_t>(st.u8());
        auto decoder = std::make_unique<HuffmanDecoder>(spec);
        if (tc == 0)
            st.dcTables[th] = std::move(decoder);
        else
            st.acTables[th] = std::move(decoder);
    }
    return true;
}

bool
parseSof0(DecoderState &st, std::size_t seg_end)
{
    if (!st.need(6))
        return st.fail("truncated SOF0");
    const int precision = st.u8();
    if (precision != 8)
        return st.fail("only 8-bit precision supported");
    st.height = st.u16();
    st.width = st.u16();
    const int nc = st.u8();
    if (st.width <= 0 || st.height <= 0)
        return st.fail("bad frame dimensions");
    if (static_cast<std::uint64_t>(st.width) *
            static_cast<std::uint64_t>(st.height) > kMaxPixels)
        return st.fail("frame dimensions exceed decoder limit");
    if (!st.comps.empty())
        return st.fail("multiple SOF0 frames");
    if (nc != 1 && nc != 3)
        return st.fail("only 1 or 3 components supported");
    for (int i = 0; i < nc; ++i) {
        if (!st.need(3))
            return st.fail("truncated SOF0 component");
        ComponentState c;
        c.id = st.u8();
        const int hv = st.u8();
        c.h = hv >> 4;
        c.v = hv & 0x0F;
        c.quantTable = st.u8();
        if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2)
            return st.fail("sampling factors beyond 2 unsupported");
        st.comps.push_back(c);
    }
    (void)seg_end;
    return true;
}

bool
decodeScan(DecoderState &st)
{
    // SOS header.
    if (!st.need(1))
        return st.fail("truncated SOS");
    const int ns = st.u8();
    if (ns != static_cast<int>(st.comps.size()))
        return st.fail("scan component count mismatch (progressive?)");
    for (int i = 0; i < ns; ++i) {
        if (!st.need(2))
            return st.fail("truncated SOS component");
        const int id = st.u8();
        const int tables = st.u8();
        bool found = false;
        for (auto &c : st.comps) {
            if (c.id == id) {
                c.dcTable = tables >> 4;
                c.acTable = tables & 0x0F;
                found = true;
            }
        }
        if (!found)
            return st.fail("scan references unknown component");
    }
    if (!st.need(3))
        return st.fail("truncated SOS trailer");
    st.pos += 3; // Ss, Se, AhAl — fixed for baseline

    int hmax = 1, vmax = 1;
    for (const auto &c : st.comps) {
        hmax = std::max(hmax, c.h);
        vmax = std::max(vmax, c.v);
    }
    const int mcus_x = divCeil(st.width, 8 * hmax);
    const int mcus_y = divCeil(st.height, 8 * vmax);

    for (auto &c : st.comps) {
        c.planeW = mcus_x * c.h * 8;
        c.planeH = mcus_y * c.v * 8;
        c.plane.assign(static_cast<std::size_t>(c.planeW) * c.planeH,
                       0.0f);
        const auto quant = st.quant.find(c.quantTable);
        if (quant == st.quant.end())
            return st.fail("missing quant table");
        const auto dc = st.dcTables.find(c.dcTable);
        const auto ac = st.acTables.find(c.acTable);
        if (dc == st.dcTables.end() || ac == st.acTables.end())
            return st.fail("missing huffman table");
        c.quant = &quant->second;
        c.dc = dc->second.get();
        c.ac = ac->second.get();
    }

    auto reader = std::make_unique<BitReader>(st.data + st.pos,
                                              st.size - st.pos);
    std::size_t scan_base = st.pos;
    int mcus_since_restart = 0;

    for (int my = 0; my < mcus_y; ++my) {
        for (int mx = 0; mx < mcus_x; ++mx) {
            if (st.restartInterval > 0 &&
                mcus_since_restart == st.restartInterval) {
                // Align to the RSTn marker and resync.
                std::size_t p = scan_base + reader->position();
                while (p + 1 < st.size &&
                       !(st.data[p] == 0xFF && st.data[p + 1] >= RST0 &&
                         st.data[p + 1] <= RST7))
                    ++p;
                if (p + 1 >= st.size)
                    return st.fail("missing restart marker");
                p += 2;
                reader = std::make_unique<BitReader>(st.data + p,
                                                     st.size - p);
                scan_base = p;
                for (auto &c : st.comps)
                    c.pred = 0;
                mcus_since_restart = 0;
            }
            for (auto &c : st.comps) {
                const auto &quant = *c.quant;
                const HuffmanDecoder &dc = *c.dc;
                const HuffmanDecoder &ac = *c.ac;
                for (int by = 0; by < c.v; ++by) {
                    for (int bx = 0; bx < c.h; ++bx) {
                        // --- Huffman-decode one block ---
                        float coeff[64] = {0};
                        const int dc_cat = dc.decode(*reader);
                        if (dc_cat < 0 || dc_cat > 11)
                            return st.fail("bad DC code");
                        const int dc_bits = reader->get(dc_cat);
                        if (dc_cat > 0 && dc_bits < 0)
                            return st.fail("truncated DC bits");
                        c.pred += extend(dc_bits, dc_cat);
                        if (c.pred < -kMaxDcCoefficient ||
                            c.pred > kMaxDcCoefficient)
                            return st.fail("DC coefficient outside the "
                                           "baseline range");
                        coeff[0] = static_cast<float>(c.pred * quant[0]);
                        int k = 1;
                        while (k < 64) {
                            const int rs = ac.decode(*reader);
                            if (rs < 0)
                                return st.fail("bad AC code");
                            const int run = rs >> 4;
                            const int cat = rs & 0x0F;
                            if (cat == 0) {
                                if (run == 15) {
                                    k += 16; // ZRL
                                    continue;
                                }
                                break; // EOB
                            }
                            k += run;
                            if (k >= 64)
                                return st.fail("AC index overflow");
                            const int bits = reader->get(cat);
                            if (bits < 0)
                                return st.fail("truncated AC bits");
                            const int nat = kZigZag[k];
                            coeff[nat] = static_cast<float>(
                                extend(bits, cat) * quant[nat]);
                            ++k;
                        }
                        // --- IDCT and store ---
                        float pixels[64];
                        inverseDct8x8(coeff, pixels);
                        const int ox = (mx * c.h + bx) * 8;
                        const int oy = (my * c.v + by) * 8;
                        for (int y = 0; y < 8; ++y) {
                            for (int x = 0; x < 8; ++x) {
                                c.plane[static_cast<std::size_t>(oy + y) *
                                            c.planeW +
                                        ox + x] =
                                    pixels[y * 8 + x] + 128.0f;
                            }
                        }
                    }
                }
            }
            ++mcus_since_restart;
        }
    }
    st.pos = scan_base + reader->position();
    return true;
}

Image
assembleImage(const DecoderState &st)
{
    const int nc = static_cast<int>(st.comps.size());
    Image img(st.width, st.height, nc);
    std::uint8_t *out = img.pixels.data();
    if (nc == 1) {
        const auto &c = st.comps[0];
        for (int y = 0; y < st.height; ++y) {
            const float *row =
                c.plane.data() + static_cast<std::size_t>(y) * c.planeW;
            for (int x = 0; x < st.width; ++x)
                *out++ = roundToByte(row[x]);
        }
        return img;
    }
    // YCbCr -> RGB with (nearest) upsampling. Every component is
    // indexed through its own sampling factors: planes only cover
    // width * h / hmax samples, so a plane subsampled relative to
    // another (legal per the syntax, luma included) must not be read
    // at full resolution. Factors are 1 or 2, so x * h / hmax is x, or
    // x / 2 for a plane subsampled against the frame.
    int hmax = 1, vmax = 1;
    for (const auto &c : st.comps) {
        hmax = std::max(hmax, c.h);
        vmax = std::max(vmax, c.v);
    }
    const auto &cy = st.comps[0];
    const auto &cb = st.comps[1];
    const auto &cr = st.comps[2];
    const auto row = [&](const ComponentState &c, int y) {
        return c.plane.data() +
               static_cast<std::size_t>(c.v < vmax ? y / 2 : y) * c.planeW;
    };
    const int yShift = cy.h < hmax, bShift = cb.h < hmax,
              rShift = cr.h < hmax;
    for (int y = 0; y < st.height; ++y) {
        const float *yRow = row(cy, y);
        const float *bRow = row(cb, y);
        const float *rRow = row(cr, y);
        for (int x = 0; x < st.width; ++x) {
            const float Y = yRow[x >> yShift];
            const float Cb = bRow[x >> bShift] - 128.0f;
            const float Cr = rRow[x >> rShift] - 128.0f;
            *out++ = roundToByte(Y + 1.402f * Cr);
            *out++ = roundToByte(Y - 0.344136f * Cb - 0.714136f * Cr);
            *out++ = roundToByte(Y + 1.772f * Cb);
        }
    }
    return img;
}

} // namespace

DecodeResult
decodeJpeg(const std::uint8_t *data, std::size_t size)
{
    DecodeResult res;
    DecoderState st(data, size);

    if (size < 4 || data[0] != 0xFF || data[1] != SOI) {
        res.error = "not a JPEG (missing SOI)";
        return res;
    }
    st.pos = 2;

    bool have_frame = false;
    bool scan_done = false;
    while (st.pos + 1 < st.size && !scan_done) {
        if (st.data[st.pos] != 0xFF) {
            res.error = "expected marker";
            return res;
        }
        const int marker = st.data[st.pos + 1];
        st.pos += 2;
        if (marker == EOI)
            break;
        if (marker == SOI || (marker >= RST0 && marker <= RST7))
            continue; // parameterless markers
        if (!st.need(2)) {
            res.error = "truncated segment length";
            return res;
        }
        const int seg_len = st.u16();
        if (seg_len < 2) {
            // The length field counts itself; anything smaller would
            // rewind the cursor and re-parse bytes already consumed.
            res.error = "segment length below 2";
            return res;
        }
        const std::size_t seg_end = st.pos + seg_len - 2;
        if (seg_end > st.size) {
            res.error = "segment overruns file";
            return res;
        }
        bool ok = true;
        switch (marker) {
          case DQT:
            ok = parseDqt(st, seg_end);
            break;
          case DHT:
            ok = parseDht(st, seg_end);
            break;
          case SOF0:
            ok = parseSof0(st, seg_end);
            have_frame = true;
            break;
          case DRI:
            if (seg_end - st.pos < 2 || !st.need(2)) {
                res.error = "truncated DRI";
                return res;
            }
            st.restartInterval = st.u16();
            break;
          case SOS:
            if (!have_frame) {
                res.error = "SOS before SOF0";
                return res;
            }
            ok = decodeScan(st);
            scan_done = true;
            break;
          default:
            if (marker >= 0xC1 && marker <= 0xCF && marker != DHT) {
                res.error = "non-baseline frame type unsupported";
                return res;
            }
            st.pos = seg_end; // skip APPn/COM/...
            break;
        }
        if (!ok) {
            res.error = st.error.empty() ? "decode error" : st.error;
            return res;
        }
        if (marker != SOS)
            st.pos = seg_end;
    }

    if (!scan_done) {
        res.error = "no scan data";
        return res;
    }
    res.image = assembleImage(st);
    res.ok = true;
    return res;
}

DecodeResult
decodeJpeg(const std::vector<std::uint8_t> &data)
{
    return decodeJpeg(data.data(), data.size());
}

} // namespace jpeg
} // namespace tb
