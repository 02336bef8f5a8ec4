#include "prep/jpeg/dct.hh"

#include <algorithm>
#include <cmath>

namespace tb {
namespace jpeg {

namespace {

/** Cosine basis c[u][x] = cos((2x+1) u pi / 16), with DCT scale factors. */
struct Basis
{
    float cosTab[8][8];
    float alpha[8];

    Basis()
    {
        for (int u = 0; u < 8; ++u) {
            alpha[u] = u == 0 ? std::sqrt(1.0f / 8.0f)
                              : std::sqrt(2.0f / 8.0f);
            for (int x = 0; x < 8; ++x)
                cosTab[u][x] = std::cos((2.0f * x + 1.0f) * u *
                                        static_cast<float>(M_PI) / 16.0f);
        }
    }
};

const Basis &
basis()
{
    static const Basis b;
    return b;
}

} // namespace

void
forwardDct8x8(const float in[64], float out[64])
{
    const Basis &b = basis();
    float tmp[64];
    // Rows.
    for (int y = 0; y < 8; ++y) {
        for (int u = 0; u < 8; ++u) {
            float acc = 0.0f;
            for (int x = 0; x < 8; ++x)
                acc += in[y * 8 + x] * b.cosTab[u][x];
            tmp[y * 8 + u] = acc * b.alpha[u];
        }
    }
    // Columns.
    for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
            float acc = 0.0f;
            for (int y = 0; y < 8; ++y)
                acc += tmp[y * 8 + u] * b.cosTab[v][y];
            out[v * 8 + u] = acc * b.alpha[v];
        }
    }
}

void
inverseDct8x8(const float in[64], float out[64])
{
    // Each output is the textbook sum: from 0, add (alpha * coefficient)
    // * cosine with the term index ascending. The term loop is outermost
    // and the eight independent outputs of a row innermost, so each step
    // is one multiply and add across a row, which GCC vectorizes at -O2;
    // per output, the terms and their order are those of the sum.
    const Basis &b = basis();
    // Columns: tmp[y][u] = sum over v of (alpha[v] * in[v][u]) * c[v][y].
    float tmp[64] = {};
    for (int v = 0; v < 8; ++v) {
        float scaled[8];
        for (int u = 0; u < 8; ++u)
            scaled[u] = b.alpha[v] * in[v * 8 + u];
        for (int y = 0; y < 8; ++y)
            for (int u = 0; u < 8; ++u)
                tmp[y * 8 + u] += scaled[u] * b.cosTab[v][y];
    }
    // Rows: res[y][x] = sum over u of (alpha[u] * tmp[y][u]) * c[u][x].
    float res[64] = {};
    for (int y = 0; y < 8; ++y) {
        for (int u = 0; u < 8; ++u) {
            const float scaled = b.alpha[u] * tmp[y * 8 + u];
            for (int x = 0; x < 8; ++x)
                res[y * 8 + x] += scaled * b.cosTab[u][x];
        }
    }
    std::copy(res, res + 64, out);
}

} // namespace jpeg
} // namespace tb
