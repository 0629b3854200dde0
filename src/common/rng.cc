#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace catapult {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
}

double Rng::NextDouble() {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            m = static_cast<__uint128_t>(Next()) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(NextBounded(span));
}

double Rng::Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
}

bool Rng::Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
}

double Rng::Exponential(double mean) {
    double u;
    do {
        u = NextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double Rng::Normal() {
    if (have_cached_normal_) {
        have_cached_normal_ = false;
        return cached_normal_;
    }
    double u1;
    do {
        u1 = NextDouble();
    } while (u1 <= 0.0);
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return r * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * Normal());
}

Rng::GeometricParam::GeometricParam(double p) : p(p), log_q(std::log1p(-p)) {
    assert(p > 0.0 && p <= 1.0);
}

std::uint64_t Rng::Geometric(const GeometricParam& param) {
    if (param.p >= 1.0) return 0;
    double u;
    do {
        u = NextDouble();
    } while (u <= 0.0);
    // A division, not a multiply by 1 / log_q: the rounding would differ.
    return static_cast<std::uint64_t>(std::floor(std::log(u) / param.log_q));
}

std::uint64_t Rng::Poisson(double lambda) {
    assert(lambda >= 0.0);
    if (lambda < 30.0) {
        // Knuth inversion.
        const double limit = std::exp(-lambda);
        double product = NextDouble();
        std::uint64_t n = 0;
        while (product > limit) {
            product *= NextDouble();
            ++n;
        }
        return n;
    }
    // Normal approximation with continuity correction is adequate for the
    // load-generator use cases (lambda >> 1).
    const double x = Normal(lambda, std::sqrt(lambda));
    return x < 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::size_t Rng::WeightedIndex(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    assert(total > 0.0);
    double target = NextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) return i;
    }
    return weights.size() - 1;
}

Rng Rng::Fork() {
    return Rng(Next() ^ 0xA5A5A5A55A5A5A5Aull);
}

}  // namespace catapult
