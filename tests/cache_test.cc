/**
 * @file
 * Tests of the cache substrate: geometry arithmetic, the LRU recency
 * table and the set-associative tag store.
 */

#include <gtest/gtest.h>

#include "cache/geometry.h"
#include "cache/line_store.h"
#include "cache/replacement.h"
#include "cache/tag_store.h"

namespace fbsim {
namespace {

TEST(GeometryTest, AddressArithmetic)
{
    CacheGeometry g{32, 8, 2};
    EXPECT_EQ(g.wordsPerLine(), 4u);
    EXPECT_EQ(g.capacityBytes(), 32u * 8 * 2);
    EXPECT_EQ(g.lineOf(0), 0u);
    EXPECT_EQ(g.lineOf(31), 0u);
    EXPECT_EQ(g.lineOf(32), 1u);
    EXPECT_EQ(g.lineBase(3), 96u);
    EXPECT_EQ(g.wordIndex(0), 0u);
    EXPECT_EQ(g.wordIndex(8), 1u);
    EXPECT_EQ(g.wordIndex(33), 0u);
    EXPECT_EQ(g.wordIndex(56), 3u);
    EXPECT_EQ(g.setOf(7), 7u);
    EXPECT_EQ(g.setOf(8), 0u);
}

TEST(LruStampsTest, EvictsLeastRecentlyUsed)
{
    LruStamps lru(1, 4);
    EXPECT_EQ(lru.victim(0), 0u);   // all stamps equal: lowest way
    for (std::size_t w = 0; w < 4; ++w)
        lru.touch(w);
    lru.touch(0);   // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(lru.victim(0), 1u);
    lru.touch(1);
    EXPECT_EQ(lru.victim(0), 2u);
}

TEST(LruStampsTest, NearReplacementIsTheColdHalf)
{
    LruStamps lru(2, 4);
    for (std::size_t w = 0; w < 4; ++w)
        lru.touch(4 + w);   // set 1
    // Recency order 0,1,2,3 (3 hottest): 0 and 1 are the cold half.
    EXPECT_TRUE(lru.nearReplacement(1, 0));
    EXPECT_TRUE(lru.nearReplacement(1, 1));
    EXPECT_FALSE(lru.nearReplacement(1, 2));
    EXPECT_FALSE(lru.nearReplacement(1, 3));
    EXPECT_EQ(lru.victim(1), 0u);
}

TEST(TagStoreTest, FindAfterInstall)
{
    TagStore tags({32, 4, 2});
    EXPECT_EQ(tags.find(5), nullptr);
    CacheLine &line = tags.victimFor(5);
    tags.install(line, 5, State::E);
    CacheLine *found = tags.find(5);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->addr, 5u);
    EXPECT_EQ(found->state, State::E);
    EXPECT_EQ(found->data.size(), 4u);
}

TEST(TagStoreTest, InvalidWaysArePreferredVictims)
{
    TagStore tags({32, 1, 4});
    // Fill two of four ways.
    for (LineAddr la = 0; la < 2; ++la) {
        CacheLine &line = tags.victimFor(la);
        tags.install(line, la, State::S);
    }
    // The victim for a new line must be an (unused) invalid way, not
    // one of the valid lines.
    CacheLine &v = tags.victimFor(7);
    EXPECT_FALSE(v.valid());
}

/** A one-set, 4-way store holding lines 0..3 in ways 0..3. */
void
fillOneSet(TagStore &tags)
{
    for (LineAddr la = 0; la < 4; ++la) {
        CacheLine &line = tags.victimFor(la);
        tags.install(line, la, State::S);
    }
}

TEST(TagStoreTest, TouchedWayIsNotTheVictim)
{
    TagStore tags({32, 1, 4});
    fillOneSet(tags);
    EXPECT_EQ(tags.victimFor(9).addr, 0u);   // oldest fill
    tags.touch(*tags.find(0));
    EXPECT_EQ(tags.victimFor(9).addr, 1u);
}

TEST(TagStoreTest, NearReplacementFollowsTouches)
{
    TagStore tags({32, 1, 4});
    fillOneSet(tags);
    tags.touch(*tags.find(0));
    tags.touch(*tags.find(1));
    // Recency order 2,3,0,1 (1 hottest): 2 and 3 are the cold half.
    EXPECT_TRUE(tags.nearReplacement(*tags.find(2)));
    EXPECT_TRUE(tags.nearReplacement(*tags.find(3)));
    EXPECT_FALSE(tags.nearReplacement(*tags.find(0)));
    EXPECT_FALSE(tags.nearReplacement(*tags.find(1)));
}

TEST(TagStoreTest, SetConflictEvictsWithinTheSet)
{
    TagStore tags({32, 4, 1});
    // Lines 0 and 4 collide in set 0 of a 4-set direct-mapped store.
    CacheLine &a = tags.victimFor(0);
    tags.install(a, 0, State::S);
    CacheLine &b = tags.victimFor(4);
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.addr, 0u);
}

TEST(TagStoreTest, ValidLineCountAndIteration)
{
    TagStore tags({32, 4, 2});
    for (LineAddr la = 0; la < 5; ++la) {
        CacheLine &line = tags.victimFor(la);
        tags.install(line, la, State::S);
    }
    EXPECT_EQ(tags.validLineCount(), 5u);
    std::size_t seen = 0;
    tags.forEachValidLine([&](const CacheLine &line) {
        ++seen;
        EXPECT_TRUE(line.valid());
    });
    EXPECT_EQ(seen, 5u);
}

TEST(TagStoreTest, InvalidatedLinesDropOutOfLookup)
{
    TagStore tags({32, 4, 2});
    CacheLine &line = tags.victimFor(9);
    tags.install(line, 9, State::M);
    tags.setState(*tags.find(9), State::I);
    EXPECT_EQ(tags.find(9), nullptr);
    EXPECT_EQ(tags.validLineCount(), 0u);
}

// ---------------------------------------------------------------- //
// Epoch-based bulk invalidation.

/** PlainLineStore forced onto the generic per-line walk, as the
 *  equivalence reference for the O(1) epoch path. */
class WalkInvalidateStore : public PlainLineStore
{
  public:
    using PlainLineStore::PlainLineStore;
    void bulkInvalidate() override { LineStore::bulkInvalidate(); }
};

TEST(TagStoreTest, EpochInvalidationMatchesPerLineWalk)
{
    CacheGeometry geom;
    geom.lineBytes = 32;
    geom.numSets = 8;
    geom.assoc = 2;

    PlainLineStore epoch_store(geom);
    WalkInvalidateStore walk_store(geom);

    std::vector<LineAddr> lines;
    for (LineAddr la = 0; la < 12; ++la)
        lines.push_back(la * 3 + 1);
    for (LineAddr la : lines) {
        epoch_store.install(la, State::S);
        walk_store.install(la, State::S);
        epoch_store.setState(*epoch_store.find(la), State::M);
        walk_store.setState(*walk_store.find(la), State::M);
    }
    ASSERT_EQ(epoch_store.validLineCount(), walk_store.validLineCount());
    std::uint32_t epoch_before = epoch_store.tags().epoch();

    epoch_store.bulkInvalidate();
    walk_store.bulkInvalidate();

    // The epoch path must be observably identical to the walk: every
    // line gone, none findable, count zero...
    EXPECT_EQ(epoch_store.validLineCount(), 0u);
    EXPECT_EQ(walk_store.validLineCount(), 0u);
    for (LineAddr la : lines) {
        EXPECT_EQ(epoch_store.stateOf(la), State::I);
        EXPECT_EQ(walk_store.stateOf(la), State::I);
        EXPECT_EQ(epoch_store.find(la), nullptr);
        EXPECT_EQ(walk_store.find(la), nullptr);
    }
    // ...while doing its work with one counter bump instead of a walk.
    EXPECT_EQ(epoch_store.tags().epoch(), epoch_before + 1);

    // Both stores keep working identically afterwards: refills land in
    // repaired frames and are found in the installed state.
    for (LineAddr la : {LineAddr{5}, LineAddr{40}, LineAddr{77}}) {
        epoch_store.install(la, State::E);
        walk_store.install(la, State::E);
        ASSERT_NE(epoch_store.find(la), nullptr);
        ASSERT_NE(walk_store.find(la), nullptr);
        EXPECT_EQ(epoch_store.find(la)->state, State::E);
        EXPECT_EQ(walk_store.find(la)->state, State::E);
    }
    EXPECT_EQ(epoch_store.validLineCount(), walk_store.validLineCount());
}

} // namespace
} // namespace fbsim
