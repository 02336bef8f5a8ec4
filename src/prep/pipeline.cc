#include "prep/pipeline.hh"

#include <array>
#include <cmath>

#include "common/math_util.hh"
#include "prep/image/image_ops.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/jpeg/jpeg_encoder.hh"

namespace tb {
namespace prep {

PreparedImage
ImagePrepPipeline::prepare(const std::vector<std::uint8_t> &jpeg_bytes,
                           Rng &rng) const
{
    PreparedImage out;

    jpeg::DecodeResult decoded = jpeg::decodeJpeg(jpeg_bytes);
    if (!decoded.ok) {
        out.error = "decode: " + decoded.error;
        return out;
    }
    if (decoded.image.width < cfg_.cropWidth ||
        decoded.image.height < cfg_.cropHeight) {
        out.error = "image smaller than crop";
        return out;
    }

    Image img = cfg_.augment
        ? imageops::randomCrop(decoded.image, cfg_.cropWidth,
                               cfg_.cropHeight, rng)
        : imageops::centerCrop(decoded.image, cfg_.cropWidth,
                               cfg_.cropHeight);
    if (cfg_.augment) {
        if (rng.uniform() < cfg_.mirrorProbability)
            img = imageops::mirrorHorizontal(img);
        if (cfg_.noiseStddev > 0.0)
            img = imageops::addGaussianNoise(img, cfg_.noiseStddev, rng);
    }

    out.tensor = imageops::castToFloatTensor(img);
    out.width = img.width;
    out.height = img.height;
    out.channels = img.channels;
    out.ok = true;
    return out;
}

Image
makeSyntheticImage(int width, int height, Rng &rng)
{
    Image img(width, height, 3);

    // Low-frequency sinusoidal "scene" per channel plus a few blobs.
    struct Wave
    {
        double fx, fy, phase, amp;
    };
    std::array<std::array<Wave, 3>, 3> waves;
    for (auto &chan : waves)
        for (auto &w : chan)
            w = {rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                 rng.uniform(0.0, 2.0 * M_PI), rng.uniform(20.0, 55.0)};

    struct Blob
    {
        double cx, cy, r, amp;
        int channel;
    };
    std::vector<Blob> blobs;
    for (int i = 0; i < 6; ++i)
        blobs.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                         rng.uniform(0.05, 0.25), rng.uniform(-60.0, 60.0),
                         static_cast<int>(rng.uniformInt(0, 2))});

    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const double u = static_cast<double>(x) / width;
            const double v = static_cast<double>(y) / height;
            for (int c = 0; c < 3; ++c) {
                double val = 110.0 + 40.0 * u + 20.0 * v;
                for (const auto &w : waves[c])
                    val += w.amp *
                           std::sin(2.0 * M_PI * (w.fx * u + w.fy * v) +
                                    w.phase);
                for (const auto &b : blobs) {
                    if (b.channel != c)
                        continue;
                    const double d2 = (u - b.cx) * (u - b.cx) +
                                      (v - b.cy) * (v - b.cy);
                    val += b.amp * std::exp(-d2 / (b.r * b.r));
                }
                img.at(x, y, c) = roundToByte(val);
            }
        }
    }
    return img;
}

std::vector<std::uint8_t>
makeSyntheticJpeg(int width, int height, Rng &rng, int quality)
{
    const Image img = makeSyntheticImage(width, height, rng);
    jpeg::EncoderOptions opts;
    opts.quality = quality;
    return jpeg::encodeJpeg(img, opts);
}

namespace {

/**
 * Screen a waveform and the audio config before running the chain, so
 * malformed input (a corrupted item, an absurd header) quarantines
 * gracefully instead of tripping the kernels' fatal asserts or
 * producing NaN features. Returns an "audio: ..." diagnostic, or ""
 * when the input is fit to process.
 */
std::string
checkAudioInput(const std::vector<double> &waveform,
                const AudioPrepConfig &cfg)
{
    if (waveform.empty())
        return "audio: empty waveform";
    for (double v : waveform) {
        if (!std::isfinite(v))
            return "audio: non-finite waveform sample";
        // Real PCM decodes to [-1, 1] (a few orders of magnitude of
        // headroom allowed); an exponent-bit upset lands far outside and
        // would overflow the power spectrum to Inf downstream.
        if (std::fabs(v) > 1.0e6)
            return "audio: waveform sample out of range";
    }

    const audio::StftConfig &stft = cfg.stft;
    if (stft.windowSize == 0 || stft.hopSize == 0)
        return "audio: zero stft window or hop";
    if (stft.fftSize < stft.windowSize)
        return "audio: fft smaller than window";
    if ((stft.fftSize & (stft.fftSize - 1)) != 0)
        return "audio: fft size not a power of two";
    if (waveform.size() < stft.windowSize)
        return "audio: waveform shorter than one window";

    const audio::MelConfig &mel = cfg.mel;
    if (mel.numMels == 0)
        return "audio: zero mel bands";
    if (!std::isfinite(mel.sampleRate) || mel.sampleRate <= 0.0)
        return "audio: bad sample rate";
    if (mel.fMin < 0.0 || !std::isfinite(mel.fMin))
        return "audio: bad mel fMin";
    if (!std::isfinite(mel.fMax) || mel.fMax <= mel.fMin)
        return "audio: mel fMax at or below fMin";
    if (mel.fMax > mel.sampleRate / 2.0)
        return "audio: mel fMax above Nyquist";
    return "";
}

} // namespace

PreparedAudio
AudioPrepPipeline::prepare(std::vector<double> waveform, Rng &rng) const
{
    PreparedAudio out;
    out.error = checkAudioInput(waveform, cfg_);
    if (!out.error.empty())
        return out;
    if (cfg_.augment && cfg_.waveformNoiseStddev > 0.0)
        audio::addNoise(waveform, cfg_.waveformNoiseStddev, rng);

    const audio::Spectrogram power = audio::stft(waveform, cfg_.stft);
    if (power.frames == 0) {
        out.error = "audio: stft produced no frames";
        return out;
    }
    out.features = audio::logMel(power, cfg_.mel, cfg_.stft.fftSize);
    if (cfg_.augment)
        audio::applyMasks(out.features, cfg_.mask, rng);
    if (cfg_.normalize)
        audio::normalize(out.features);
    out.ok = true;
    return out;
}

} // namespace prep
} // namespace tb
