/**
 * @file
 * Corruption robustness for the audio prep chain, mirroring
 * test_jpeg_corrupt.cc: malformed waveforms (NaN/Inf samples, empty or
 * too-short signals) and absurd configs (zero hops, non-power-of-two
 * FFTs, insane sample rates) must come back as clean "audio: ..."
 * failures — never crashes, aborts, division by zero, or NaN features.
 * Run under ASan/UBSan via tools/check.sh.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "prep/integrity.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace prep {
namespace {

std::vector<double>
toneWaveform(std::size_t n = 4000)
{
    std::vector<double> wave(n);
    for (std::size_t i = 0; i < n; ++i)
        wave[i] = 0.2 * std::sin(0.05 * static_cast<double>(i));
    return wave;
}

/** The chain must return a verdict; failures carry an audio: message. */
void
expectGraceful(const AudioPrepPipeline &pipe, std::vector<double> wave,
               Rng &rng)
{
    const PreparedAudio out = pipe.prepare(std::move(wave), rng);
    if (!out.ok) {
        EXPECT_FALSE(out.error.empty());
    } else {
        // Whatever comes out ok must actually be usable.
        std::string error;
        EXPECT_TRUE(validateAudioFeatures(out.features.power, &error))
            << error;
    }
}

TEST(AudioCorrupt, CleanWaveformPrepares)
{
    AudioPrepPipeline pipe;
    Rng rng(41);
    const PreparedAudio out = pipe.prepare(toneWaveform(), rng);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.features.frames, 0u);
    EXPECT_EQ(out.features.bins, pipe.config().mel.numMels);
}

TEST(AudioCorrupt, NanAndInfSamplesRejectedCleanly)
{
    AudioPrepPipeline pipe;
    Rng rng(42);

    auto nan_wave = toneWaveform();
    nan_wave[100] = std::numeric_limits<double>::quiet_NaN();
    PreparedAudio out = pipe.prepare(nan_wave, rng);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(quarantineReason(out.error), "audio_malformed");

    auto inf_wave = toneWaveform();
    inf_wave.back() = std::numeric_limits<double>::infinity();
    out = pipe.prepare(inf_wave, rng);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(quarantineReason(out.error), "audio_malformed");
}

TEST(AudioCorrupt, DegenerateWaveformsRejectedCleanly)
{
    AudioPrepPipeline pipe;
    Rng rng(43);

    PreparedAudio out = pipe.prepare({}, rng);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.error.empty());

    // Shorter than one analysis window.
    out = pipe.prepare(std::vector<double>(10, 0.5), rng);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(quarantineReason(out.error), "audio_malformed");
}

TEST(AudioCorrupt, AbsurdStftConfigsRejectedCleanly)
{
    Rng rng(44);

    AudioPrepConfig zero_hop;
    zero_hop.stft.hopSize = 0; // naively: division by zero
    expectGraceful(AudioPrepPipeline(zero_hop), toneWaveform(), rng);
    EXPECT_FALSE(
        AudioPrepPipeline(zero_hop).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig zero_window;
    zero_window.stft.windowSize = 0;
    EXPECT_FALSE(
        AudioPrepPipeline(zero_window).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig small_fft;
    small_fft.stft.fftSize = 256; // < windowSize: would abort in stft()
    EXPECT_FALSE(
        AudioPrepPipeline(small_fft).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig odd_fft;
    odd_fft.stft.windowSize = 400;
    odd_fft.stft.fftSize = 500; // not a power of two
    EXPECT_FALSE(
        AudioPrepPipeline(odd_fft).prepare(toneWaveform(), rng).ok);
}

TEST(AudioCorrupt, AbsurdSampleRatesAndMelConfigsRejectedCleanly)
{
    Rng rng(45);

    AudioPrepConfig zero_rate;
    zero_rate.mel.sampleRate = 0.0;
    EXPECT_FALSE(
        AudioPrepPipeline(zero_rate).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig negative_rate;
    negative_rate.mel.sampleRate = -16000.0;
    EXPECT_FALSE(
        AudioPrepPipeline(negative_rate).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig nan_rate;
    nan_rate.mel.sampleRate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(
        AudioPrepPipeline(nan_rate).prepare(toneWaveform(), rng).ok);

    // fMax above Nyquist: filterbank rows would alias off the spectrum.
    AudioPrepConfig high_fmax;
    high_fmax.mel.sampleRate = 8000.0;
    high_fmax.mel.fMax = 8000.0;
    EXPECT_FALSE(
        AudioPrepPipeline(high_fmax).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig inverted;
    inverted.mel.fMin = 4000.0;
    inverted.mel.fMax = 100.0;
    EXPECT_FALSE(
        AudioPrepPipeline(inverted).prepare(toneWaveform(), rng).ok);

    AudioPrepConfig zero_mels;
    zero_mels.mel.numMels = 0;
    EXPECT_FALSE(
        AudioPrepPipeline(zero_mels).prepare(toneWaveform(), rng).ok);
}

// A negative or NaN stddev used to skip the noise silently, and an
// infinite one returned ok with most log-Mel features non-finite.
TEST(AudioCorrupt, BadNoiseStddevRejectedCleanly)
{
    for (const double stddev : {-1.0, std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
        AudioPrepConfig cfg;
        cfg.waveformNoiseStddev = stddev;
        Rng rng(46);
        const PreparedAudio out =
            AudioPrepPipeline(cfg).prepare(toneWaveform(), rng);
        EXPECT_FALSE(out.ok) << stddev;
        EXPECT_EQ(out.error.rfind("audio: ", 0), 0u) << out.error;
    }
    // A zero stddev still turns the noise off.
    AudioPrepConfig quiet;
    quiet.waveformNoiseStddev = 0.0;
    Rng rng(46);
    EXPECT_TRUE(AudioPrepPipeline(quiet).prepare(toneWaveform(), rng).ok);
}

TEST(AudioCorrupt, SingleBitFlipsNeverCrash)
{
    // The audio analogue of JpegCorrupt.SingleBitFlipsNeverCrash: flip
    // one bit of the raw double buffer per trial. Most flips perturb a
    // sample harmlessly; exponent/NaN-payload flips must be screened
    // out, and nothing may crash or emit non-finite features.
    AudioPrepPipeline pipe;
    const auto base = toneWaveform(2000);
    Rng flip_rng(46);
    Rng rng(47);
    for (int trial = 0; trial < 500; ++trial) {
        auto wave = base;
        flipRandomBit(wave, flip_rng);
        expectGraceful(pipe, std::move(wave), rng);
    }
}

TEST(AudioCorrupt, MultiBitFlipsNeverCrash)
{
    AudioPrepPipeline pipe;
    const auto base = toneWaveform(2000);
    Rng flip_rng(48);
    Rng rng(49);
    for (int trial = 0; trial < 100; ++trial) {
        auto wave = base;
        const int flips = static_cast<int>(flip_rng.uniformInt(1, 16));
        for (int i = 0; i < flips; ++i)
            flipRandomBit(wave, flip_rng);
        expectGraceful(pipe, std::move(wave), rng);
    }
}

} // namespace
} // namespace prep
} // namespace tb
