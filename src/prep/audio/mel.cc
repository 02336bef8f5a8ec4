#include "prep/audio/mel.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tb {
namespace audio {

double
hzToMel(double hz)
{
    return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double
melToHz(double mel)
{
    return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

std::vector<double>
melFilterbank(const MelConfig &mel, std::size_t bins, std::size_t fft_size)
{
    fatal_if(mel.numMels == 0, "need at least one mel band");
    fatal_if(mel.fMax <= mel.fMin, "fMax must exceed fMin");

    // Band edges evenly spaced on the mel scale.
    const double mel_min = hzToMel(mel.fMin);
    const double mel_max = hzToMel(mel.fMax);
    std::vector<double> edges(mel.numMels + 2);
    for (std::size_t i = 0; i < edges.size(); ++i)
        edges[i] = melToHz(mel_min + (mel_max - mel_min) *
                                         static_cast<double>(i) /
                                         static_cast<double>(
                                             mel.numMels + 1));

    std::vector<double> weights(mel.numMels * bins, 0.0);
    for (std::size_t m = 0; m < mel.numMels; ++m) {
        const double lo = edges[m];
        const double mid = edges[m + 1];
        const double hi = edges[m + 2];
        for (std::size_t b = 0; b < bins; ++b) {
            const double freq = static_cast<double>(b) * mel.sampleRate /
                                static_cast<double>(fft_size);
            double w = 0.0;
            if (freq > lo && freq < hi) {
                w = freq <= mid ? (freq - lo) / (mid - lo)
                                : (hi - freq) / (hi - mid);
            }
            weights[m * bins + b] = w;
        }
    }
    return weights;
}

Spectrogram
logMel(const Spectrogram &power, const MelConfig &mel, std::size_t fft_size)
{
    const std::vector<double> fb =
        melFilterbank(mel, power.bins, fft_size);

    Spectrogram out;
    out.frames = power.frames;
    out.bins = mel.numMels;
    out.power.assign(out.frames * out.bins, 0.0);

    // Band m's non-zero weights lie in bins [first[m], last[m]); the
    // header says why skipping the others keeps every bit.
    std::vector<std::size_t> first(mel.numMels, power.bins);
    std::vector<std::size_t> last(mel.numMels, 0);
    for (std::size_t m = 0; m < mel.numMels; ++m)
        for (std::size_t b = 0; b < power.bins; ++b)
            if (fb[m * power.bins + b] != 0.0) {
                first[m] = std::min(first[m], b);
                last[m] = b + 1;
            }

    constexpr double eps = 1e-10;
    for (std::size_t f = 0; f < power.frames; ++f) {
        const double *p = power.power.data() + f * power.bins;
        for (std::size_t m = 0; m < mel.numMels; ++m) {
            const double *w = fb.data() + m * power.bins;
            double acc = 0.0;
            for (std::size_t b = first[m]; b < last[m]; ++b)
                acc += w[b] * p[b];
            out.at(f, m) = std::log(acc + eps);
        }
    }
    return out;
}

} // namespace audio
} // namespace tb
