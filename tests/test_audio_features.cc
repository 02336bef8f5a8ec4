/**
 * @file
 * Tests for STFT, Mel filterbank, SpecAugment masking, normalization,
 * and the waveform generator.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/crc32c.hh"
#include "prep/audio/audio_ops.hh"
#include "prep/audio/mel.hh"
#include "prep/audio/stft.hh"
#include "prep/audio/wave_gen.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace audio {
namespace {

TEST(Stft, FrameCountFormula)
{
    StftConfig cfg;
    EXPECT_EQ(numFrames(0, cfg), 0u);
    EXPECT_EQ(numFrames(cfg.windowSize - 1, cfg), 0u);
    EXPECT_EQ(numFrames(cfg.windowSize, cfg), 1u);
    EXPECT_EQ(numFrames(cfg.windowSize + cfg.hopSize, cfg), 2u);
    // LibriSpeech mean: 6.96 s at 16 kHz -> ~694 frames.
    EXPECT_EQ(numFrames(static_cast<std::size_t>(6.96 * 16000), cfg),
              694u);
}

TEST(Stft, HannWindowProperties)
{
    const auto w = hannWindow(400);
    EXPECT_NEAR(w.front(), 0.0, 1e-12);
    EXPECT_NEAR(w.back(), 0.0, 1e-12);
    EXPECT_NEAR(w[200], 1.0, 1e-4); // midpoint
    for (std::size_t i = 0; i < w.size() / 2; ++i)
        ASSERT_NEAR(w[i], w[w.size() - 1 - i], 1e-12); // symmetric
}

TEST(Stft, PureTonePeaksAtItsBin)
{
    StftConfig cfg;
    const double sr = 16000.0;
    const double freq = 1000.0;
    std::vector<double> signal(8000);
    for (std::size_t t = 0; t < signal.size(); ++t)
        signal[t] = std::sin(2.0 * M_PI * freq * t / sr);

    const Spectrogram spec = stft(signal, cfg);
    ASSERT_GT(spec.frames, 0u);
    EXPECT_EQ(spec.bins, cfg.fftSize / 2 + 1);

    const std::size_t expected_bin = static_cast<std::size_t>(
        std::lround(freq * cfg.fftSize / sr));
    for (std::size_t f = 0; f < spec.frames; ++f) {
        std::size_t best = 0;
        for (std::size_t b = 1; b < spec.bins; ++b)
            if (spec.at(f, b) > spec.at(f, best))
                best = b;
        ASSERT_NEAR(static_cast<double>(best),
                    static_cast<double>(expected_bin), 1.0);
    }
}

TEST(Stft, SilenceIsZero)
{
    const std::vector<double> silence(4000, 0.0);
    const Spectrogram spec = stft(silence);
    for (double p : spec.power)
        EXPECT_DOUBLE_EQ(p, 0.0);
}

std::uint32_t
powerDigest(const Spectrogram &spec)
{
    const std::size_t head[2] = {spec.frames, spec.bins};
    return crc32c(spec.power.data(), spec.power.size() * sizeof(double),
                  crc32c(head, sizeof head));
}

// Pinned from the FFT that rebuilt its twiddles per butterfly block
// and multiplied through std::complex: every FFT size from 1 to 1024,
// windows shorter than the FFT (zero padding) and equal to it.
TEST(Stft, PowerMatchesItsPins)
{
    Rng rng(4401);
    WaveGenConfig wcfg;
    wcfg.durationSec = 0.5;
    const std::vector<double> wave = generateUtterance(wcfg, rng);
    const struct
    {
        StftConfig cfg;
        std::uint32_t digest;
    } cases[] = {
        {{400, 160, 512}, 0x6d36c054}, {{256, 100, 256}, 0xcef5298a},
        {{1000, 333, 1024}, 0x1b1a9455}, {{100, 37, 128}, 0x1896a1a5},
        {{50, 20, 64}, 0x1d7c286b},     {{32, 11, 32}, 0xf9bbe46e},
        {{9, 5, 16}, 0x203b9f20},       {{8, 3, 8}, 0x053b65ec},
        {{3, 2, 4}, 0x907c125f},        {{2, 1, 2}, 0xf76d70f4},
        {{1, 1, 1}, 0xf3796c9f},
    };
    for (const auto &c : cases) {
        const std::uint32_t got = powerDigest(stft(wave, c.cfg));
        EXPECT_EQ(got, c.digest) << "fft " << c.cfg.fftSize << ": 0x"
                                 << std::hex << got;
    }
}

TEST(Mel, HzMelRoundTrip)
{
    for (double hz : {0.0, 100.0, 440.0, 1000.0, 4000.0, 8000.0})
        EXPECT_NEAR(melToHz(hzToMel(hz)), hz, 1e-6);
    // Mel scale is monotone and compressive at high frequencies.
    EXPECT_LT(hzToMel(8000.0) - hzToMel(7000.0),
              hzToMel(2000.0) - hzToMel(1000.0));
}

TEST(Mel, FilterbankCoversSpectrum)
{
    MelConfig mel;
    const std::size_t bins = 257;
    const auto fb = melFilterbank(mel, bins, 512);
    ASSERT_EQ(fb.size(), mel.numMels * bins);
    // Every filter has nonzero area; weights are in [0, 1].
    for (std::size_t m = 0; m < mel.numMels; ++m) {
        double area = 0.0;
        for (std::size_t b = 0; b < bins; ++b) {
            const double w = fb[m * bins + b];
            ASSERT_GE(w, 0.0);
            ASSERT_LE(w, 1.0);
            area += w;
        }
        EXPECT_GT(area, 0.0) << "mel band " << m;
    }
}

TEST(Mel, ToneLandsInTheRightBand)
{
    // A 1 kHz tone's energy must concentrate near the band whose center
    // is 1 kHz.
    StftConfig scfg;
    MelConfig mcfg;
    std::vector<double> signal(8000);
    for (std::size_t t = 0; t < signal.size(); ++t)
        signal[t] = std::sin(2.0 * M_PI * 1000.0 * t / 16000.0);
    const Spectrogram mel_out =
        logMel(stft(signal, scfg), mcfg, scfg.fftSize);
    ASSERT_GT(mel_out.frames, 0u);
    EXPECT_EQ(mel_out.bins, mcfg.numMels);

    std::size_t best = 0;
    for (std::size_t b = 1; b < mel_out.bins; ++b)
        if (mel_out.at(0, b) > mel_out.at(0, best))
            best = b;
    // Band centers are mel-spaced between 0 and 8 kHz: 1 kHz sits near
    // mel(1000)/mel(8000) of the range.
    const double frac = hzToMel(1000.0) / hzToMel(8000.0);
    EXPECT_NEAR(static_cast<double>(best),
                frac * static_cast<double>(mcfg.numMels), 6.0);
}

/** logMel's definition: every bin of every band, in bin order. */
Spectrogram
denseLogMel(const Spectrogram &power, const MelConfig &mel,
            std::size_t fft_size)
{
    const std::vector<double> fb = melFilterbank(mel, power.bins, fft_size);
    Spectrogram out;
    out.frames = power.frames;
    out.bins = mel.numMels;
    out.power.assign(out.frames * out.bins, 0.0);
    for (std::size_t f = 0; f < power.frames; ++f)
        for (std::size_t m = 0; m < mel.numMels; ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < power.bins; ++b)
                acc += fb[m * power.bins + b] * power.at(f, b);
            out.at(f, m) = std::log(acc + 1e-10);
        }
    return out;
}

// logMel sums each band only over its non-zero weights; on finite,
// non-negative power that must give the dense sum's exact values.
TEST(Mel, LogMelMatchesDenseFilterbank)
{
    auto expectSame = [](const Spectrogram &power, const MelConfig &mel,
                         std::size_t fft_size) {
        const Spectrogram got = logMel(power, mel, fft_size);
        const Spectrogram want = denseLogMel(power, mel, fft_size);
        ASSERT_EQ(got.frames, want.frames);
        ASSERT_EQ(got.bins, want.bins);
        for (std::size_t i = 0; i < want.power.size(); ++i)
            EXPECT_EQ(got.power[i], want.power[i]) << "value " << i;
    };

    // The pipeline's own input: an utterance's power spectrogram.
    Rng rng(21);
    WaveGenConfig wcfg;
    wcfg.durationSec = 0.5;
    const StftConfig scfg;
    expectSame(stft(generateUtterance(wcfg, rng), scfg), MelConfig{},
               scfg.fftSize);

    // Runs of exact-zero bins, a silent frame, and a band layout that
    // leaves bins outside every band.
    Spectrogram runs;
    runs.frames = 6;
    runs.bins = 513;
    runs.power.resize(runs.frames * runs.bins);
    for (std::size_t f = 0; f < runs.frames; ++f)
        for (std::size_t b = 0; b < runs.bins; ++b)
            runs.at(f, b) = f == 3 || (b / (f + 3)) % 3 == 0
                                ? 0.0
                                : rng.uniform(0.0, 50.0);
    MelConfig narrow;
    narrow.numMels = 40;
    narrow.fMin = 300.0;
    narrow.fMax = 6000.0;
    expectSame(runs, narrow, 1024);
    expectSame(runs, MelConfig{}, 1024);
}

TEST(AudioOps, TimeMaskZeroesWholeFrames)
{
    Spectrogram s;
    s.frames = 100;
    s.bins = 20;
    s.power.assign(s.frames * s.bins, 1.0);
    MaskConfig cfg;
    cfg.numTimeMasks = 1;
    cfg.maxTimeMaskFrames = 30;
    cfg.numFreqMasks = 0;
    Rng rng(3);
    applyMasks(s, cfg, rng);

    // Each frame is either fully 1 or fully 0.
    std::size_t masked = 0;
    for (std::size_t f = 0; f < s.frames; ++f) {
        const double v = s.at(f, 0);
        for (std::size_t b = 1; b < s.bins; ++b)
            ASSERT_DOUBLE_EQ(s.at(f, b), v);
        if (v == 0.0)
            ++masked;
    }
    EXPECT_LE(masked, 30u);
}

TEST(AudioOps, FreqMaskZeroesWholeBands)
{
    Spectrogram s;
    s.frames = 50;
    s.bins = 40;
    s.power.assign(s.frames * s.bins, 2.0);
    MaskConfig cfg;
    cfg.numTimeMasks = 0;
    cfg.numFreqMasks = 1;
    cfg.maxFreqMaskBins = 10;
    Rng rng(5);
    applyMasks(s, cfg, rng);

    std::size_t masked = 0;
    for (std::size_t b = 0; b < s.bins; ++b) {
        const double v = s.at(0, b);
        for (std::size_t f = 1; f < s.frames; ++f)
            ASSERT_DOUBLE_EQ(s.at(f, b), v);
        if (v == 0.0)
            ++masked;
    }
    EXPECT_LE(masked, 10u);
}

TEST(AudioOps, NormalizeGivesZeroMeanUnitVariance)
{
    Rng rng(7);
    Spectrogram s;
    s.frames = 200;
    s.bins = 16;
    s.power.resize(s.frames * s.bins);
    for (auto &v : s.power)
        v = rng.gaussian(5.0, 3.0);
    normalize(s);
    const auto means = columnMeans(s);
    const auto sds = columnStddevs(s);
    for (std::size_t b = 0; b < s.bins; ++b) {
        EXPECT_NEAR(means[b], 0.0, 1e-9);
        EXPECT_NEAR(sds[b], 1.0, 1e-9);
    }
}

TEST(AudioOps, NormalizeHandlesConstantColumns)
{
    Spectrogram s;
    s.frames = 10;
    s.bins = 2;
    s.power.assign(20, 4.0);
    normalize(s); // must not divide by zero
    for (double v : s.power)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AudioOps, AddNoiseChangesSignal)
{
    Rng rng(9);
    std::vector<double> signal(1000, 0.0);
    addNoise(signal, 0.1, rng);
    double energy = 0.0;
    for (double s : signal)
        energy += s * s;
    EXPECT_NEAR(energy / 1000.0, 0.01, 0.002);
}

TEST(WaveGen, ProducesBoundedSignalOfRightLength)
{
    Rng rng(11);
    WaveGenConfig cfg;
    const auto wave = generateUtterance(cfg, rng);
    EXPECT_EQ(wave.size(),
              static_cast<std::size_t>(cfg.sampleRate * cfg.durationSec));
    double energy = 0.0;
    for (double s : wave) {
        ASSERT_GE(s, -1.0);
        ASSERT_LE(s, 1.0);
        energy += s * s;
    }
    EXPECT_GT(energy / static_cast<double>(wave.size()), 1e-4);
}

TEST(WaveGen, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    WaveGenConfig cfg;
    cfg.durationSec = 0.5;
    const auto wa = generateUtterance(cfg, a);
    const auto wb = generateUtterance(cfg, b);
    EXPECT_NE(wa, wb);
}

TEST(AudioPipeline, EndToEndShape)
{
    Rng rng(13);
    WaveGenConfig wcfg;
    const auto wave = generateUtterance(wcfg, rng);
    prep::AudioPrepPipeline pipe;
    const prep::PreparedAudio out = pipe.prepare(wave, rng);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.features.frames, 694u);
    EXPECT_EQ(out.features.bins, 80u);
}

// The whole chain, as a prep worker runs it, on two utterances.
TEST(AudioPipeline, PreparedFeaturesMatchTheirPin)
{
    Rng rng(4402);
    const prep::AudioPrepPipeline pipe;
    std::uint32_t crc = 0;
    for (int i = 0; i < 2; ++i) {
        const auto wave = generateUtterance(WaveGenConfig{}, rng);
        const prep::PreparedAudio out = pipe.prepare(wave, rng);
        ASSERT_TRUE(out.ok) << out.error;
        crc = crc32c(out.features.power.data(),
                     out.features.power.size() * sizeof(double), crc);
    }
    EXPECT_EQ(crc, 0x1d72e697u) << "0x" << std::hex << crc;
}

TEST(AudioPipeline, TooShortSignalFails)
{
    prep::AudioPrepPipeline pipe;
    Rng rng(15);
    const prep::PreparedAudio out =
        pipe.prepare(std::vector<double>(10, 0.0), rng);
    EXPECT_FALSE(out.ok);
}

} // namespace
} // namespace audio
} // namespace tb
