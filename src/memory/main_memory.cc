#include "memory/main_memory.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

MainMemory::MainMemory(std::size_t words_per_line)
    : wordsPerLine_(words_per_line)
{
    fbsim_assert(words_per_line > 0);
}

Word *
MainMemory::lineRef(LineAddr la)
{
    // Bus traffic hits the same line repeatedly (word writes during a
    // broadcast run, push-then-refill), so a one-entry cache
    // short-circuits the probe.
    if (lastAddr_ == la)
        return words_.data() + lastOff_;
    if (const std::uint64_t *off = slot_.find(la)) {
        lastOff_ = *off;
    } else {
        lastOff_ = words_.size();
        slot_[la] = lastOff_;
        words_.resize(lastOff_ + wordsPerLine_, 0);
    }
    lastAddr_ = la;
    return words_.data() + lastOff_;
}

std::span<const Word>
MainMemory::readLine(LineAddr la)
{
    ++stats_.lineReads;
    return {lineRef(la), wordsPerLine_};
}

void
MainMemory::writeLine(LineAddr la, std::span<const Word> words)
{
    fbsim_assert(words.size() == wordsPerLine_);
    ++stats_.lineWrites;
    std::copy(words.begin(), words.end(), lineRef(la));
}

void
MainMemory::writeWord(LineAddr la, std::size_t word_idx, Word value)
{
    fbsim_assert(word_idx < wordsPerLine_);
    ++stats_.wordWrites;
    lineRef(la)[word_idx] = value;
}

Word
MainMemory::peekWord(LineAddr la, std::size_t word_idx) const
{
    fbsim_assert(word_idx < wordsPerLine_);
    if (lastAddr_ == la)
        return words_[lastOff_ + word_idx];
    const std::uint64_t *off = slot_.find(la);
    return off ? words_[*off + word_idx] : 0;
}

std::span<const Word>
MainMemory::peekLine(LineAddr la) const
{
    const std::uint64_t *off = slot_.find(la);
    if (off == nullptr)
        return {};
    return {words_.data() + *off, wordsPerLine_};
}

void
MainMemory::forEachLine(
    const std::function<void(LineAddr, std::span<const Word>)> &fn) const
{
    slot_.forEach([&](std::uint64_t la, std::uint64_t off) {
        fn(la, std::span<const Word>(words_.data() + off, wordsPerLine_));
    });
}

} // namespace fbsim
