/**
 * @file
 * End-to-end functional data-preparation pipelines mirroring the
 * simulator's operator chains (Fig 4):
 *
 *   image: JPEG decode -> random crop -> random mirror -> gaussian noise
 *          -> bf16 tensor
 *   audio: waveform (+noise) -> STFT -> log-Mel -> SpecAugment masks
 *          -> normalize
 *
 * plus synthetic item generators standing in for the ImageNet /
 * LibriSpeech items (DESIGN.md substitution table).
 */

#ifndef TRAINBOX_PREP_PIPELINE_HH
#define TRAINBOX_PREP_PIPELINE_HH

#include <string>
#include <vector>

#include "common/random.hh"
#include "prep/audio/audio_ops.hh"
#include "prep/audio/mel.hh"
#include "prep/image/image.hh"

namespace tb {
namespace prep {

/** Image-chain knobs (defaults: the paper's 256x256 -> 224x224 flow). */
struct ImagePrepConfig
{
    int cropWidth = 224;
    int cropHeight = 224;
    double mirrorProbability = 0.5;
    double noiseStddev = 4.0;
    bool augment = true;
};

/** One prepared image sample. */
struct PreparedImage
{
    /** CHW float tensor (values already rounded through bf16). */
    std::vector<float> tensor;
    int width = 0;
    int height = 0;
    int channels = 0;
    bool ok = false;
    std::string error;
};

/** Functional image preparation chain. */
class ImagePrepPipeline
{
  public:
    explicit ImagePrepPipeline(ImagePrepConfig cfg = {}) : cfg_(cfg) {}

    /**
     * Decode + format + augment one stored JPEG item. A config with a
     * non-positive crop, a mirror probability outside [0, 1] (or NaN)
     * or a negative or non-finite noise stddev fails every item with an
     * "image: ..." error.
     */
    PreparedImage prepare(const std::vector<std::uint8_t> &jpeg_bytes,
                          Rng &rng) const;

    const ImagePrepConfig &config() const { return cfg_; }

  private:
    ImagePrepConfig cfg_;
};

/** Smooth, compressible synthetic image (stands in for a photo). */
Image makeSyntheticImage(int width, int height, Rng &rng);

/** Synthetic stored item: synthetic image encoded as baseline JPEG. */
std::vector<std::uint8_t> makeSyntheticJpeg(int width, int height,
                                            Rng &rng, int quality = 85);

/** Audio-chain knobs. */
struct AudioPrepConfig
{
    audio::StftConfig stft;
    audio::MelConfig mel;
    audio::MaskConfig mask;
    double waveformNoiseStddev = 0.005;
    bool augment = true;
    bool normalize = true;
};

/** One prepared audio sample. */
struct PreparedAudio
{
    audio::Spectrogram features; // frames x numMels
    bool ok = false;
    std::string error;
};

/** Functional audio preparation chain. */
class AudioPrepPipeline
{
  public:
    explicit AudioPrepPipeline(AudioPrepConfig cfg = {}) : cfg_(cfg) {}

    /** Format + augment one waveform. */
    PreparedAudio prepare(std::vector<double> waveform, Rng &rng) const;

    const AudioPrepConfig &config() const { return cfg_; }

  private:
    AudioPrepConfig cfg_;
};

} // namespace prep
} // namespace tb

#endif // TRAINBOX_PREP_PIPELINE_HH
