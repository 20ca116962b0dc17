#include "calibration.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

struct Snooper
{
    virtual ~Snooper() = default;
    virtual std::uint64_t snoop(std::uint64_t x) const = 0;
};

struct Updater : Snooper
{
    std::uint64_t snoop(std::uint64_t x) const override
    {
        return x * 3 + 1;
    }
};

struct Invalidator : Snooper
{
    std::uint64_t snoop(std::uint64_t x) const override
    {
        return x ^ (x >> 5);
    }
};

constexpr std::size_t kCaches = 4;
constexpr std::size_t kLines = 4096;             // per cache
constexpr std::size_t kPresenceSlots = 1u << 18; // 3 MB of table
constexpr int kRefs = 1500000;

struct Line
{
    std::uint64_t tag;
    std::uint8_t state;
};

// Sized once, then reset and reused by every call.
std::vector<Line> g_lines(kCaches * kLines);
std::vector<std::uint64_t> g_keys(kPresenceSlots);
std::vector<std::uint32_t> g_counts(kPresenceSlots);
volatile std::uint64_t g_sink;

} // namespace

double
calibrate()
{
    std::fill(g_lines.begin(), g_lines.end(), Line{0, 0});
    std::fill(g_keys.begin(), g_keys.end(), 0);
    std::fill(g_counts.begin(), g_counts.end(), 0);
    static const Updater updater;
    static const Invalidator invalidator;
    const Snooper *const snoopers[2] = {&updater, &invalidator};

    const Clock::time_point start = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < kRefs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t addr = x % (1u << 22);
        Line &line = g_lines[(i % kCaches) * kLines + ((addr >> 5) % kLines)];
        if (line.state != 0 && line.tag == addr >> 17) {
            acc += line.state;
            continue;
        }
        // Miss: fill the line, note the block in the presence table
        // (open addressing; 2^17 distinct blocks keep it half full)
        // and notify a snooper through an indirect call.
        line.tag = addr >> 17;
        line.state = static_cast<std::uint8_t>(1 + (x & 3));
        const std::uint64_t key = (addr >> 5) + 1;
        std::size_t slot = (key * 0x9e3779b97f4a7c15ull) >> 46;
        while (g_keys[slot] != 0 && g_keys[slot] != key)
            slot = (slot + 1) % kPresenceSlots;
        g_keys[slot] = key;
        acc += ++g_counts[slot];
        acc += snoopers[x & 1]->snoop(acc);
    }
    g_sink = acc;
    return secondsBetween(start, Clock::now());
}

} // namespace perfbench
