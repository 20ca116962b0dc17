/**
 * @file
 * Tests of the section 6 extensions: the consistency (sync/purge)
 * command, line crossers (section 5.1), and the bus transaction log.
 */

#include <gtest/gtest.h>

#include "bus/transaction_log.h"
#include "test_util.h"

namespace fbsim {
namespace {

TEST(SyncCommandTest, RemoteOwnerPushesAndDemotes)
{
    auto sys = test::homogeneousSystem(3);
    sys->write(0, 0x100, 7);
    ASSERT_EQ(sys->cacheOf(0)->lineState(0x100), State::M);
    ASSERT_NE(sys->memory().peekWord(0x100 / 32, 0), 7u);

    // Cache 2 (not the owner) issues the sync: the owner must push and
    // keep a now memory-consistent copy.
    sys->syncLine(2, 0x100);
    EXPECT_EQ(sys->memory().peekWord(0x100 / 32, 0), 7u);
    EXPECT_EQ(sys->cacheOf(0)->lineState(0x100), State::E);
    EXPECT_GE(sys->bus().stats().syncs, 1u);
    EXPECT_GE(sys->bus().stats().aborts, 1u);
    EXPECT_TRUE(sys->violations().empty());
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(SyncCommandTest, SharedOwnerDemotesToShareable)
{
    auto sys = test::homogeneousSystem(3);
    sys->write(0, 0x200, 5);
    sys->read(1, 0x200);
    ASSERT_EQ(sys->cacheOf(0)->lineState(0x200), State::O);
    sys->syncLine(2, 0x200);
    EXPECT_EQ(sys->cacheOf(0)->lineState(0x200), State::S);
    EXPECT_EQ(sys->cacheOf(1)->lineState(0x200), State::S);
    EXPECT_EQ(sys->memory().peekWord(0x200 / 32, 0), 5u);
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(SyncCommandTest, LocalOwnerSyncsViaPass)
{
    auto sys = test::homogeneousSystem(2);
    sys->write(0, 0x300, 3);
    // The owner itself issues the sync: local Pass, then the (empty)
    // bus command.
    sys->syncLine(0, 0x300);
    EXPECT_EQ(sys->cacheOf(0)->lineState(0x300), State::E);
    EXPECT_EQ(sys->memory().peekWord(0x300 / 32, 0), 3u);
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(SyncCommandTest, PurgeInvalidatesEveryCopy)
{
    auto sys = test::homogeneousSystem(3);
    sys->write(0, 0x400, 9);
    sys->read(1, 0x400);
    sys->read(2, 0x400);
    sys->syncLine(1, 0x400, /*purge=*/true);
    // Memory is now the sole owner; every cached copy is gone.
    for (MasterId id = 0; id < 3; ++id)
        EXPECT_EQ(sys->cacheOf(id)->lineState(0x400), State::I);
    EXPECT_EQ(sys->memory().peekWord(0x400 / 32, 0), 9u);
    EXPECT_TRUE(sys->checkNow().empty());
    // A later read refills from (valid) memory.
    EXPECT_EQ(sys->read(2, 0x400).value, 9u);
}

TEST(SyncCommandTest, SyncOfUnownedLineIsCheap)
{
    auto sys = test::homogeneousSystem(2);
    sys->read(0, 0x500);
    AccessOutcome o = sys->syncLine(1, 0x500);
    EXPECT_EQ(o.busTransactions, 1u);
    EXPECT_EQ(sys->bus().stats().aborts, 0u);
    // Holders keep their copies on a plain sync.
    EXPECT_EQ(sys->cacheOf(0)->lineState(0x500), State::E);
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(SyncCommandTest, NonCachingMasterCanIssueSync)
{
    System sys(test::testConfig());
    MasterId cache = sys.addCache(test::smallCache());
    MasterId io = sys.addNonCachingMaster(false);
    sys.write(cache, 0x600, 4);
    sys.syncLine(io, 0x600);
    EXPECT_EQ(sys.memory().peekWord(0x600 / 32, 0), 4u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(SyncCommandTest, WorksAcrossProtocols)
{
    for (ProtocolKind kind :
         {ProtocolKind::Moesi, ProtocolKind::Berkeley,
          ProtocolKind::Dragon, ProtocolKind::WriteOnce,
          ProtocolKind::Illinois, ProtocolKind::Firefly}) {
        auto sys = test::homogeneousSystem(2, kind);
        sys->write(0, 0x700, 6);
        sys->syncLine(1, 0x700, /*purge=*/true);
        EXPECT_EQ(sys->memory().peekWord(0x700 / 32, 0), 6u)
            << protocolKindName(kind);
        EXPECT_EQ(sys->cacheOf(0)->lineState(0x700), State::I)
            << protocolKindName(kind);
        EXPECT_TRUE(sys->checkNow().empty()) << protocolKindName(kind);
    }
}

TEST(LineCrosserTest, MultiWordAccessSplitsAcrossLines)
{
    auto sys = test::homogeneousSystem(2);
    // 6 words starting 2 words before a 32B line boundary: crosses
    // into the next line -> two fills (section 5.1: one transaction
    // per line involved).
    Addr start = 32 - 2 * kWordBytes;
    std::vector<Word> values = {10, 11, 12, 13, 14, 15};
    AccessOutcome w = sys->writeWords(0, start, values);
    EXPECT_GE(w.busTransactions, 2u);
    EXPECT_TRUE(isValid(sys->cacheOf(0)->lineState(start)));
    EXPECT_TRUE(isValid(sys->cacheOf(0)->lineState(start + 5 * 8)));

    std::vector<Word> back(6, 0);
    sys->readWords(1, start, back);
    EXPECT_EQ(back, values);
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(LineCrosserTest, ContainedAccessTouchesOneLine)
{
    auto sys = test::homogeneousSystem(1);
    std::vector<Word> values = {1, 2};
    AccessOutcome w = sys->writeWords(0, 64, values);
    // One RWITM fill; the second word is a hit.
    EXPECT_EQ(w.busTransactions, 1u);
}

TEST(TransactionLogTest, RecordsCompletedTransactions)
{
    auto sys = test::homogeneousSystem(2);
    TransactionLog log(8);
    sys->bus().addTraceSink(&log);
    sys->write(0, 0x100, 1);
    sys->read(1, 0x100);
    ASSERT_EQ(log.observed(), 2u);
    EXPECT_NE(log.entries()[0].find("Read"), std::string::npos);
    EXPECT_NE(log.entries()[0].find("IM"), std::string::npos);
    EXPECT_NE(log.entries()[1].find("<- cache"), std::string::npos);
    EXPECT_NE(log.entries()[1].find("DI"), std::string::npos);
}

TEST(TransactionLogTest, RingBufferDropsOldest)
{
    auto sys = test::homogeneousSystem(1);
    TransactionLog log(3);
    sys->bus().addTraceSink(&log);
    for (int i = 0; i < 6; ++i)
        sys->read(0, 0x1000 + i * 4096);   // distinct sets: all misses
    EXPECT_EQ(log.observed(), 6u);
    EXPECT_EQ(log.entries().size(), 3u);
    log.clear();
    EXPECT_TRUE(log.entries().empty());
    EXPECT_EQ(log.observed(), 6u);
}

TEST(TransactionLogTest, AbortsAreAnnotated)
{
    auto sys = test::homogeneousSystem(2, ProtocolKind::Illinois);
    TransactionLog log;
    sys->bus().addTraceSink(&log);
    sys->write(0, 0x100, 1);
    sys->read(1, 0x100);   // BS abort, push, retry
    EXPECT_NE(log.render().find(" (1 aborts) "), std::string::npos)
        << log.render();
    EXPECT_NE(log.render().find("Push"), std::string::npos);
}

} // namespace
} // namespace fbsim
