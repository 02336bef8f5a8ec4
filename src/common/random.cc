#include "common/random.hh"

#include <cmath>

namespace tb {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    return mix64(state += 0x9e3779b97f4a7c15ull);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1)
    return ((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>((*this)() % span);
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

Rng
Rng::split()
{
    return Rng((*this)());
}

} // namespace tb
