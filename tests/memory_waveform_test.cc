/**
 * @file
 * Tests of the main-memory module and the waveform renderer.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "memory/main_memory.h"
#include "text/waveform.h"

namespace fbsim {
namespace {

TEST(MainMemoryTest, UntouchedLinesReadZero)
{
    MainMemory mem(4);
    std::span<const Word> line = mem.readLine(42);
    ASSERT_EQ(line.size(), 4u);
    for (Word w : line)
        EXPECT_EQ(w, 0u);
    EXPECT_EQ(mem.peekWord(999, 3), 0u);
    EXPECT_TRUE(mem.peekLine(999).empty());
}

TEST(MainMemoryTest, WordAndLineWrites)
{
    MainMemory mem(4);
    mem.writeWord(5, 2, 0xaa);
    EXPECT_EQ(mem.peekWord(5, 2), 0xaau);
    EXPECT_EQ(mem.peekWord(5, 0), 0u);
    std::vector<Word> line = {1, 2, 3, 4};
    mem.writeLine(5, line);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(mem.peekWord(5, i), line[i]);
}

TEST(MainMemoryTest, StatsTrackOperations)
{
    MainMemory mem(2);
    mem.readLine(0);
    mem.writeLine(0, std::vector<Word>{1, 2});
    mem.writeWord(0, 0, 3);
    EXPECT_EQ(mem.stats().lineReads, 1u);
    EXPECT_EQ(mem.stats().lineWrites, 1u);
    EXPECT_EQ(mem.stats().wordWrites, 1u);
}

TEST(MainMemoryTest, ForEachLineVisitsTouchedLines)
{
    MainMemory mem(2);
    mem.writeWord(3, 0, 1);
    mem.writeWord(9, 1, 2);
    std::set<LineAddr> seen;
    mem.forEachLine([&](LineAddr la, std::span<const Word>) {
        seen.insert(la);
    });
    EXPECT_EQ(seen, (std::set<LineAddr>{3, 9}));
}

TEST(MainMemoryTest, ContentsSurviveSlabGrowth)
{
    // Twelve thousand lines grow the slab many times over; every line
    // must keep its words, and forEachLine must visit each exactly once.
    MainMemory mem(4);
    const LineAddr kLines = 12000;
    for (LineAddr la = 0; la < kLines; ++la) {
        LineAddr at = la * 7 + 3;   // sparse addresses
        if (la % 2 == 0)
            mem.writeWord(at, la % 4, la + 1);
        else
            mem.writeLine(at, std::vector<Word>{la, la + 1, la + 2, la + 3});
    }
    for (LineAddr la = 0; la < kLines; ++la) {
        LineAddr at = la * 7 + 3;
        std::span<const Word> line = mem.peekLine(at);
        ASSERT_EQ(line.size(), 4u);
        for (std::size_t w = 0; w < 4; ++w) {
            Word want = la % 2 == 0 ? (w == la % 4 ? la + 1 : 0) : la + w;
            ASSERT_EQ(line[w], want) << "line " << at << " word " << w;
            ASSERT_EQ(mem.peekWord(at, w), want);
        }
    }
    EXPECT_TRUE(mem.peekLine(1).empty());
    EXPECT_EQ(mem.peekWord(1, 0), 0u);

    std::map<LineAddr, int> visits;
    mem.forEachLine([&](LineAddr la, std::span<const Word> words) {
        ++visits[la];
        EXPECT_EQ(words.size(), 4u);
        EXPECT_EQ(words[0], mem.peekWord(la, 0));
    });
    ASSERT_EQ(visits.size(), kLines);
    for (const auto &[la, count] : visits) {
        EXPECT_EQ(la % 7, 3u);
        EXPECT_EQ(count, 1) << "line " << la;
    }
    // A line first touched after all that growth still starts zeroed.
    for (Word w : mem.readLine(2))
        EXPECT_EQ(w, 0u);
}

TEST(WaveformTest, RendersEdgesAndLevels)
{
    SignalTrace tr;
    tr.name = "SIG*";
    tr.initialLevel = 1;
    tr.edges = {{25.0, 0}, {75.0, 1}};
    std::string art = renderWaveforms({tr}, 100.0, 40);
    EXPECT_NE(art.find("SIG*"), std::string::npos);
    EXPECT_NE(art.find('\\'), std::string::npos);
    EXPECT_NE(art.find('/'), std::string::npos);
    EXPECT_NE(art.find('_'), std::string::npos);
    EXPECT_NE(art.find('-'), std::string::npos);
    EXPECT_NE(art.find("ns"), std::string::npos);
}

TEST(WaveformTest, LevelAtFollowsEdges)
{
    SignalTrace tr;
    tr.initialLevel = 0;
    tr.edges = {{10.0, 1}, {20.0, 0}};
    EXPECT_EQ(tr.levelAt(0.0), 0);
    EXPECT_EQ(tr.levelAt(10.0), 1);
    EXPECT_EQ(tr.levelAt(15.0), 1);
    EXPECT_EQ(tr.levelAt(25.0), 0);
    EXPECT_DOUBLE_EQ(tr.lastEdge(), 20.0);
}

} // namespace
} // namespace fbsim
