// Deterministic random number generation for reproducible experiments.
//
// All stochastic behaviour in the simulator draws from an Rng seeded per
// experiment, so every bench and test is reproducible run-to-run. The
// core generator is xoshiro256** (public domain, Blackman & Vigna),
// seeded via SplitMix64.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace catapult {

/** xoshiro256** PRNG with convenience distributions. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t Next();

    /** Uniform double in [0, 1). */
    double NextDouble();

    /** Uniform integer in [0, bound). `bound` must be > 0. */
    std::uint64_t NextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [lo, hi). */
    double Uniform(double lo, double hi);

    /** Bernoulli trial with probability `p`. */
    bool Chance(double p);

    /** Exponential variate with the given mean. */
    double Exponential(double mean);

    /** Standard normal via Box-Muller (cached pair). */
    double Normal();

    /** Normal with mean/stddev. */
    double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

    /** Log-normal parameterized by the underlying normal's mu/sigma. */
    double LogNormal(double mu, double sigma);

    /**
     * A geometric distribution's success probability p in (0, 1], with
     * log(1 - p) computed once here instead of on every draw. Implicit,
     * so Geometric(0.1) still reads as before; a caller that draws often
     * from one distribution keeps its parameter.
     */
    struct GeometricParam {
        GeometricParam(double p);  // NOLINT(google-explicit-constructor)
        double p;
        double log_q;  ///< std::log1p(-p).
    };

    /** Geometric number of failures before first success. */
    std::uint64_t Geometric(const GeometricParam& param);

    /** Poisson variate (inversion for small lambda, PTRS otherwise). */
    std::uint64_t Poisson(double lambda);

    /** Pick a random index weighted by `weights` (need not be normalized). */
    std::size_t WeightedIndex(std::span<const double> weights);

    /** Derive an independent child generator (for per-component streams). */
    Rng Fork();

  private:
    std::uint64_t state_[4];
    bool have_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

}  // namespace catapult
