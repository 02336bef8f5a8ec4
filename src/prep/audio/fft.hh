/**
 * @file
 * Iterative radix-2 FFT (power-of-two sizes) and a real-input wrapper.
 * This is the kernel behind the Mel-spectrogram formatting stage — the
 * paper's FPGA engine runs "many small FFTs" (§V-B), and the simulator's
 * audio formatting cost is calibrated against it.
 */

#ifndef TRAINBOX_PREP_AUDIO_FFT_HH
#define TRAINBOX_PREP_AUDIO_FFT_HH

#include <complex>
#include <vector>

namespace tb {
namespace audio {

using Complex = std::complex<double>;

/**
 * In-place radix-2 FFT. Size must be a power of two; fatal() otherwise.
 *
 * Each butterfly multiplies by its twiddle as (ac - bd, ad + bc),
 * written out. For finite operands that is exactly std::complex's
 * product; std::complex differs only where both parts come out NaN,
 * when it recomputes to recover infinities. So the output is the
 * std::complex FFT's, bit for bit, for finite input, which is all
 * stft() gets: the audio chain screens out non-finite and out-of-range
 * samples first (prep/pipeline.cc).
 */
void fft(std::vector<Complex> &data);

/** In-place inverse FFT (scaled by 1/N). */
void ifft(std::vector<Complex> &data);

/**
 * FFT of a real signal (zero-padded to the next power of two if needed).
 * Returns the full complex spectrum of length nextPow2(n).
 */
std::vector<Complex> rfft(const std::vector<double> &signal);

/** Naive O(N^2) DFT, used as the test oracle. */
std::vector<Complex> dftReference(const std::vector<Complex> &data);

} // namespace audio
} // namespace tb

#endif // TRAINBOX_PREP_AUDIO_FFT_HH
