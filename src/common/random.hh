/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component takes an explicit Rng so simulations and tests
 * are reproducible; there is no global generator.
 */

#ifndef TRAINBOX_COMMON_RANDOM_HH
#define TRAINBOX_COMMON_RANDOM_HH

#include <bit>
#include <cstdint>
#include <utility>

namespace tb {

/**
 * splitmix64 finalizer: a bijective 64-bit mix. Derives unrelated
 * stream seeds from one seed (`mix64(seed ^ tag)`) and decorrelates
 * adjacent indices.
 */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** generator. Small, fast, and good enough for workload
 * synthesis and augmentation randomness. Satisfies the C++
 * UniformRandomBitGenerator requirements.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via splitmix64 so similar seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1): 53 random bits, a multiple of 2^-53. */
    double uniform() { return ((*this)() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Standard normal via Box-Muller. Each fresh pair of uniforms gives
     * two normals: this call returns the cosine one and keeps the sine
     * one as the spare that the next call returns.
     */
    double gaussian();

    /** True when the next gaussian() returns the spare. */
    bool hasSpare() const { return hasSpare_; }

    /**
     * Draw the uniforms (u1, u2) of a fresh Box-Muller pair exactly as
     * gaussian() does, leaving the spare alone: u1 in (0, 1), redrawn
     * while it is 0, then u2 in [0, 1). boxMuller(u1, u2) is the pair of
     * normals gaussian() would make of them.
     */
    std::pair<double, double>
    drawPairUniforms()
    {
        double u1 = uniform();
        while (u1 == 0.0)
            u1 = uniform();
        return {u1, uniform()};
    }

    /**
     * The Box-Muller normals of (@p u1, @p u2), as gaussian() evaluates
     * them: r cos(2 pi u2) first, r sin(2 pi u2) second, with
     * r = sqrt(-2 log u1).
     */
    static std::pair<double, double> boxMuller(double u1, double u2);

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Derive an unrelated child stream (for per-component generators). */
    Rng split();

  private:
    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace tb

#endif // TRAINBOX_COMMON_RANDOM_HH
