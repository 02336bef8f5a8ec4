#include "common/random.hh"

#include <cmath>

namespace tb {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    return mix64(state += 0x9e3779b97f4a7c15ull);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
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
    const auto [u1, u2] = drawPairUniforms();
    const auto [c, s] = boxMuller(u1, u2);
    spare_ = s;
    hasSpare_ = true;
    return c;
}

std::pair<double, double>
Rng::boxMuller(double u1, double u2)
{
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return {mag * std::cos(2.0 * M_PI * u2),
            mag * std::sin(2.0 * M_PI * u2)};
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
