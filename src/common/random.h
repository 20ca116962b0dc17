/**
 * @file
 * Deterministic pseudo-random generation for fbsim.
 *
 * All stochastic behaviour in the simulator (synthetic workloads, random
 * replacement, the section 3.4 "random action selection" cache) flows from
 * explicitly seeded Rng instances so that runs are reproducible across
 * platforms and standard library versions.  The generator is
 * xoshiro256**, seeded via SplitMix64.
 *
 * The draw members are defined inline: workload generation sits on the
 * simulator's hot path and the call overhead of an out-of-line next()
 * per reference is measurable.
 */

#ifndef FBSIM_COMMON_RANDOM_H_
#define FBSIM_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "common/logging.h"

namespace fbsim {

/**
 * xoshiro256** pseudo-random number generator.
 *
 * Satisfies the essentials of UniformRandomBitGenerator, but fbsim code
 * uses the convenience members below rather than <random> distributions
 * (whose outputs are implementation-defined).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    result_type operator()() { return next(); }

    /** Next raw 64-bit value. */
    std::uint64_t next()
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

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound)
    {
        fbsim_assert(bound != 0);
        // Debiased multiply-shift (Lemire 2019): the common case is
        // one 128-bit multiply, no division; the rejection threshold
        // is only computed when the low half lands in the biased zone
        // (probability bound / 2^64).
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                m = static_cast<unsigned __int128>(next()) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        // Integer threshold compare; for p in (0,1) the product is
        // below 2^64 (the largest double < 1 maps to 2^64 - 2^11), so
        // the cast is well defined.
        return next() < static_cast<std::uint64_t>(p * 0x1.0p64);
    }

    /**
     * Geometric re-reference distance: returns k >= 0 with
     * P(k) = p * (1-p)^k; used for temporal locality in workloads.
     */
    std::uint64_t geometric(double p)
    {
        if (p != geomP_)
            geometricRetune(p);
        if (p >= 1.0)
            return 0;
        // r/2^53 is the uniform draw; r < ceil(cdf * 2^53) is exactly
        // u < cdf for integer r, so the walk never touches a double.
        const std::uint64_t r = next() >> 11;
        // The thresholds ascend, so the first k with r < thresh[k] is
        // the count of thresholds <= r.  Below thresh[kGeomHead] that
        // count is summed without branches: an early-exit walk
        // mispredicts on most draws when p is moderate.
        if (r < geomThresh_[kGeomHead]) {
            std::uint64_t k = 0;
            for (std::size_t j = 0; j < kGeomHead; ++j)
                k += r >= geomThresh_[j];
            return k;
        }
        for (std::size_t k = kGeomHead + 1; k < kGeomTable; ++k) {
            if (r < geomThresh_[k])
                return k;
        }
        return geometricTail(static_cast<double>(r) * 0x1.0p-53);
    }

    /** Fork an independent stream (e.g., one per processor). */
    Rng fork();

    /**
     * Derive a stream seed from a base seed and a stream index (a
     * SplitMix64 finalizer over their combination).  This is the
     * campaign layer's seeding discipline: job i of a campaign uses
     * deriveSeed(campaignSeed, i), so every job's randomness is a
     * pure function of (campaignSeed, jobIndex) - independent of
     * worker count and schedule - and no two jobs share a stream.
     */
    static std::uint64_t
    deriveSeed(std::uint64_t seed, std::uint64_t stream)
    {
        std::uint64_t x =
            seed + 0x9e3779b97f4a7c15ull * (stream + 0x632be59bd9b4e019ull);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /**
     * Two-level derivation for retried campaign jobs:
     * deriveSeed(campaignSeed, jobIndex, attempt).  Attempt 0 is the
     * canonical job seed (identical to the two-argument form), so a
     * never-retried campaign is bit-for-bit the unsupervised run;
     * attempt k > 0 re-finalizes, giving each retry a fresh stream
     * that is still a pure function of (seed, job, attempt).
     */
    static std::uint64_t
    deriveSeed(std::uint64_t seed, std::uint64_t stream,
               std::uint64_t substream)
    {
        std::uint64_t x = deriveSeed(seed, stream);
        return substream == 0 ? x : deriveSeed(x, substream);
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    void geometricRetune(double p);
    std::uint64_t geometricTail(double u);

    std::uint64_t s_[4];
    // geometric() inverts the CDF by walking a memoized threshold
    // table (thresh[k] = ceil((1 - (1-p)^(k+1)) * 2^53)): one raw
    // draw per call and no per-draw transcendental.  Draws landing
    // beyond the table fall back to the log-based inversion.
    static constexpr std::size_t kGeomTable = 32;
    /// Draws below thresh[kGeomHead] (k < kGeomHead + 1) take the
    /// branch-free count; at the workloads' p = 0.6 that is all but
    /// 0.4^8 = 0.07% of them.
    static constexpr std::size_t kGeomHead = 7;
    double geomP_ = -1.0;
    double geomLogDenom_ = 0.0;
    std::array<std::uint64_t, kGeomTable> geomThresh_{};
};

} // namespace fbsim

#endif // FBSIM_COMMON_RANDOM_H_
