/**
 * @file
 * Mel filterbank and log-Mel feature extraction (the Fig 17 "Mel
 * Spectrogram" / "Mel Filter bank" engines).
 */

#ifndef TRAINBOX_PREP_AUDIO_MEL_HH
#define TRAINBOX_PREP_AUDIO_MEL_HH

#include "prep/audio/stft.hh"

namespace tb {
namespace audio {

/** Mel feature parameters. */
struct MelConfig
{
    std::size_t numMels = 80;
    double sampleRate = 16000.0;
    double fMin = 0.0;
    double fMax = 8000.0;
};

/** HTK mel scale. */
double hzToMel(double hz);
double melToHz(double mel);

/**
 * Triangular mel filterbank: numMels x bins weights (row-major).
 * Bins correspond to an fftSize-point spectrum's first fftSize/2+1 bins.
 */
std::vector<double> melFilterbank(const MelConfig &mel, std::size_t bins,
                                  std::size_t fft_size);

/**
 * frames x numMels log-mel features: log(melE + eps), where melE sums
 * weight x power over bins in ascending order. Each band sums only the
 * bins from its first non-zero weight to its last; the skipped terms
 * are 0.0 x p, which is +0.0 for finite p >= 0. So the result equals
 * the dense sum bit for bit whenever every power value is finite and
 * non-negative, as |X|^2 of a finite signal is (the audio pipeline
 * rejects non-finite and out-of-range samples before the STFT).
 */
Spectrogram logMel(const Spectrogram &power, const MelConfig &mel,
                   std::size_t fft_size);

} // namespace audio
} // namespace tb

#endif // TRAINBOX_PREP_AUDIO_MEL_HH
