/**
 * @file
 * The shared main memory module.
 *
 * Per section 3.1.1 of the paper, shared memory does not track
 * validity: "caches associated with each master will keep track of the
 * invalidity of the data that resides in shared memory", and memory is
 * the default owner of every line.  The module is therefore a plain
 * backing store; all consistency intelligence lives bus- and
 * cache-side.
 *
 * The store is sparse: touched lines live in one contiguous slab,
 * indexed by line address through a FlatMap64; untouched lines read
 * as zero, matching the checker's oracle default.
 */

#ifndef FBSIM_MEMORY_MAIN_MEMORY_H_
#define FBSIM_MEMORY_MAIN_MEMORY_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace fbsim {

/** Counters for memory-slave activity. */
struct MemoryStats
{
    std::uint64_t lineReads = 0;     ///< line fills supplied
    std::uint64_t lineWrites = 0;    ///< pushes / write-backs captured
    std::uint64_t wordWrites = 0;    ///< write-through / broadcast words
    std::uint64_t inhibited = 0;     ///< responses preempted by DI
};

/** Line-granular sparse backing store. */
class MainMemory
{
  public:
    /** @param words_per_line the system-wide line size in words. */
    explicit MainMemory(std::size_t words_per_line);

    std::size_t wordsPerLine() const { return wordsPerLine_; }

    /**
     * Read a whole line (zero-filled if untouched).  The span points
     * into the slab, so it is valid only until the next access that
     * may touch a new line (readLine, writeLine, writeWord); copy it
     * out before issuing one.
     */
    std::span<const Word> readLine(LineAddr la);

    /** Overwrite a whole line (a push / write-back). */
    void writeLine(LineAddr la, std::span<const Word> words);

    /** Write one word of a line. */
    void writeWord(LineAddr la, std::size_t word_idx, Word value);

    /** Peek one word without touching statistics. */
    Word peekWord(LineAddr la, std::size_t word_idx) const;

    /** Peek a whole line; empty span if never touched (all zero). */
    std::span<const Word> peekLine(LineAddr la) const;

    /** Visit every line ever touched, once each, in unspecified
     *  order. */
    void forEachLine(
        const std::function<void(LineAddr, std::span<const Word>)> &fn)
        const;

    MemoryStats &stats() { return stats_; }
    const MemoryStats &stats() const { return stats_; }

  private:
    /** The line's slab words, appending a zero-filled line if new. */
    Word *lineRef(LineAddr la);

    std::size_t wordsPerLine_;
    FlatMap64<std::uint64_t> slot_;  ///< line -> words_ offset
    std::vector<Word> words_;        ///< touched lines, first-touch order
    /** One-entry lookup cache, as a slab offset: lines are never
     *  erased, so it survives slab growth.  Starts at the key
     *  FlatMap64 reserves, which no line address can equal. */
    LineAddr lastAddr_ = ~LineAddr{0};
    std::uint64_t lastOff_ = 0;
    MemoryStats stats_;
};

} // namespace fbsim

#endif // FBSIM_MEMORY_MAIN_MEMORY_H_
