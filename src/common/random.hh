/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component takes an explicit Rng so simulations and tests
 * are reproducible; there is no global generator.
 */

#ifndef TRAINBOX_COMMON_RANDOM_HH
#define TRAINBOX_COMMON_RANDOM_HH

#include <cstdint>

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
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller. */
    double gaussian();

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
