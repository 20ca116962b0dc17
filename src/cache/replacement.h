/**
 * @file
 * LRU recency table for set-associative stores.
 *
 * Section 5.2 of the paper consults replacement status when deciding
 * whether to keep a remotely-written line (update if recently used,
 * discard if near replacement).  That needs only a recency ranking, so
 * the stores keep one: a stamp per frame, refreshed on every fill and
 * hit, with the oldest stamp as the victim.
 */

#ifndef FBSIM_CACHE_REPLACEMENT_H_
#define FBSIM_CACHE_REPLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fbsim {

/** Per-frame LRU stamps for a (sets x ways) store, row-major. */
class LruStamps
{
  public:
    LruStamps(std::size_t sets, std::size_t ways)
        : ways_(ways), stamps_(sets * ways, 0)
    {
    }

    /** A fill or hit used frame `idx` (= set * ways + way). */
    void touch(std::size_t idx) { stamps_[idx] = ++clock_; }

    /** Least recently used way of `set`; lowest way on ties. */
    std::size_t
    victim(std::size_t set) const
    {
        const std::uint64_t *row = &stamps_[set * ways_];
        std::size_t best = 0;
        for (std::size_t w = 1; w < ways_; ++w) {
            if (row[w] < row[best])
                best = w;
        }
        return best;
    }

    /**
     * True when (set, way) ranks in the bottom half of the set by
     * recency - the paper's "nearing time for replacement" test for
     * discarding instead of updating a broadcast-written line.
     */
    bool
    nearReplacement(std::size_t set, std::size_t way) const
    {
        const std::uint64_t *row = &stamps_[set * ways_];
        std::size_t older = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (w != way && row[w] < row[way])
                ++older;
        }
        return older < (ways_ + 1) / 2;
    }

  private:
    std::size_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

} // namespace fbsim

#endif // FBSIM_CACHE_REPLACEMENT_H_
