/**
 * @file
 * Tests of common utilities: the deterministic RNG and string
 * formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/random.h"

namespace fbsim {
namespace {

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversTheRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 300; ++i) {
        std::uint64_t v = rng.range(5, 7);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceTracksProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, GeometricMeanMatches)
{
    // E[k] = (1-p)/p for P(k) = p(1-p)^k.
    Rng rng(19);
    double p = 0.4;
    double sum = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(RngTest, GeometricWithPOneIsZero)
{
    Rng rng(21);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

/**
 * Reference geometric draw: the plain early-exit threshold walk, with
 * thresholds and tail built as Rng::geometricRetune/geometricTail
 * build them.  Rng::geometric must return the same k and consume the
 * same raw draw for every state.
 */
class ReferenceGeometric
{
  public:
    explicit ReferenceGeometric(double p) : p_(p)
    {
        if (p >= 1.0)
            return;
        logDenom_ = std::log1p(-p);
        double q = 1.0 - p;
        double qk = 1.0;
        for (std::uint64_t &t : thresh_) {
            qk *= q;
            t = static_cast<std::uint64_t>(
                std::ceil((1.0 - qk) * 0x1.0p53));
        }
    }

    std::uint64_t draw(Rng &rng) const
    {
        if (p_ >= 1.0)
            return 0;
        const std::uint64_t r = rng.next() >> 11;
        for (std::size_t k = 0; k < thresh_.size(); ++k) {
            if (r < thresh_[k])
                return k;
        }
        double u = static_cast<double>(r) * 0x1.0p-53;
        double k = std::floor(std::log1p(-u) / logDenom_);
        double floor_table = static_cast<double>(thresh_.size());
        return static_cast<std::uint64_t>(std::max(k, floor_table));
    }

  private:
    double p_;
    double logDenom_ = 0.0;
    std::array<std::uint64_t, 32> thresh_{};
};

TEST(RngTest, GeometricMatchesThresholdWalk)
{
    // p = 1e-6 and 0.05 reach the log tail (k >= 32); 0.9 and 0.999999
    // saturate the upper thresholds at 2^53; 0.6 is the workloads'
    // locality parameter.
    std::uint64_t head = 0, walk = 0, tail = 0;
    for (double p : {1e-6, 0.05, 0.3, 0.5, 0.6, 0.9, 0.999999, 1.0}) {
        Rng fast(0x5eed + static_cast<std::uint64_t>(p * 1e6));
        Rng ref = fast;
        ReferenceGeometric walker(p);
        std::uint64_t mismatches = 0;
        for (int i = 0; i < 1000000; ++i) {
            std::uint64_t k = fast.geometric(p);
            mismatches += k != walker.draw(ref);
            head += k < 8;
            walk += k >= 8 && k < 32;
            tail += k >= 32;
        }
        EXPECT_EQ(mismatches, 0u) << "p = " << p;
        EXPECT_EQ(fast.next(), ref.next()) << "p = " << p;
    }
    EXPECT_GT(head, 0u);
    EXPECT_GT(walk, 0u);
    EXPECT_GT(tail, 0u);
}

TEST(RngTest, ForkIsIndependent)
{
    Rng a(23);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(StrprintfTest, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strprintf("%08llx", 0xbeefull), "0000beef");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(StrprintfTest, LongStrings)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strprintf("%s!", big.c_str()).size(), 5001u);
}

} // namespace
} // namespace fbsim
