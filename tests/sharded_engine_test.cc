/**
 * @file
 * Determinism of the sharded timed engine and the epoch-based bulk
 * invalidation behind it.
 *
 * The PerLine window loop's drain phases may be partitioned across
 * worker threads (EngineConfig::shards/pool); the contract is that NO
 * observable changes with the shard count - the EngineResult, every
 * cache's counters, the bus counters, the checker's verdicts, the
 * access log - because the drained work is per-processor independent
 * and its oracle bookkeeping merges at a deterministic serialization
 * point.  These tests pin that byte-for-byte, across protocol mixes,
 * under the default Strict ordering (which runs the interleaved loop
 * and ignores the shard request) and with fault injection armed
 * (where every ordering must fall back to the interleaved loop).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "cache/line_store.h"
#include "common/thread_pool.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

/** Everything a run can tell us, for exact comparison. */
struct Observed
{
    EngineResult engine;
    BusStats bus;
    std::vector<CacheStats> caches;
    std::vector<std::string> violations;
    std::vector<std::string> checkNow;
    std::vector<EngineAccess> accesses;
};

/** One timed run of an Arch85 workload over the given protocol mix. */
Observed
runOnce(const std::vector<ProtocolKind> &mix, unsigned shards,
        ThreadPool *pool, bool with_faults,
        EngineOrdering ordering = EngineOrdering::Strict,
        std::uint64_t refs_per_proc = 1500)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    if (with_faults) {
        FaultConfig fc;
        fc.seed = 11;
        fc.spuriousAbort.probability = 0.02;
        fc.memoryDelay.probability = 0.01;
        cfg.faults = fc;
    }
    System sys(cfg);
    for (std::size_t i = 0; i < mix.size(); ++i) {
        CacheSpec spec = test::smallCache(mix[i]);
        spec.numSets = 16;
        spec.assoc = 2;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, mix.size(), 7);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    Observed o;
    EngineConfig ec;
    ec.shards = shards;
    ec.pool = pool;
    ec.ordering = ordering;
    ec.accessLog = &o.accesses;
    Engine engine(sys, ec);

    o.engine = engine.run(raw, refs_per_proc);
    o.bus = sys.bus().stats();
    for (MasterId id = 0; id < sys.numClients(); ++id)
        o.caches.push_back(sys.cacheOf(id)->stats());
    o.violations = sys.violations();
    o.checkNow = sys.checkNow();
    return o;
}

void
expectIdentical(const Observed &a, const Observed &b)
{
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.bus, b.bus);
    EXPECT_EQ(a.caches, b.caches);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.checkNow, b.checkNow);
    EXPECT_EQ(a.accesses, b.accesses);
}

const std::vector<std::vector<ProtocolKind>> kMixes = {
    {ProtocolKind::Berkeley, ProtocolKind::Berkeley,
     ProtocolKind::Berkeley, ProtocolKind::Berkeley},
    {ProtocolKind::Illinois, ProtocolKind::Illinois,
     ProtocolKind::Firefly, ProtocolKind::Firefly},
    {ProtocolKind::Berkeley, ProtocolKind::Illinois,
     ProtocolKind::Firefly, ProtocolKind::Moesi},
};

TEST(ShardedEngineTest, ShardCountsAreByteIdentical)
{
    for (const auto &mix : kMixes) {
        Observed serial = runOnce(mix, 1, nullptr, false);
        // The runs execute real references: an all-idle run would make
        // the equalities below vacuous.  (checkNow is part of the
        // compared state but not asserted empty here: the deliberately
        // heterogeneous third mix records checker complaints even on
        // the serial engine, and those must simply replay identically.)
        ASSERT_GT(serial.bus.transactions, 0u);
        for (unsigned shards : {2u, 4u}) {
            ThreadPool pool(shards);
            Observed sharded = runOnce(mix, shards, &pool, false);
            expectIdentical(serial, sharded);
        }
    }
}

TEST(ShardedEngineTest, FaultCampaignsIgnoreShardingIdentically)
{
    // With an injector armed the engine must use the classic
    // interleaved loop (per-access watchdog and RNG draws depend on
    // the global order), so a shard request changes nothing at all.
    for (const auto &mix : kMixes) {
        Observed serial = runOnce(mix, 1, nullptr, true);
        for (unsigned shards : {2u, 4u}) {
            ThreadPool pool(shards);
            Observed sharded = runOnce(mix, shards, &pool, true);
            expectIdentical(serial, sharded);
        }
    }
}

TEST(ShardedEngineTest, RelaxedPerLineShardsAreByteIdentical)
{
    // The relaxed per-line-order mode is the loop that actually
    // shards its drains: shard counts must not change anything it
    // observes either.
    for (const auto &mix : kMixes) {
        Observed serial =
            runOnce(mix, 1, nullptr, false, EngineOrdering::PerLine);
        ASSERT_GT(serial.bus.transactions, 0u);
        ThreadPool pool(4);
        Observed sharded =
            runOnce(mix, 4, &pool, false, EngineOrdering::PerLine);
        expectIdentical(serial, sharded);
    }
}

TEST(ShardedEngineTest, DeadlineFiresInsideShardedDrain)
{
    SystemConfig cfg;
    System sys(cfg);
    for (std::size_t i = 0; i < 4; ++i) {
        CacheSpec spec = test::smallCache();
        spec.numSets = 16;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, 4, 7);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    ThreadPool pool(4);
    EngineConfig ec;
    ec.ordering = EngineOrdering::PerLine;
    ec.shards = 4;
    ec.pool = &pool;
    Engine engine(sys, ec);

    RunControl control;
    control.hasDeadline = true;
    control.deadline = std::chrono::steady_clock::now();
    control.checkEveryRefs = 1;

    EngineResult r = engine.run(raw, 1u << 20, &control);
    EXPECT_TRUE(r.cancelled);
    // The first poll precedes the first access of every shard worker,
    // so an already-expired deadline stops the run before any
    // reference executes.
    for (const ProcTiming &p : r.procs)
        EXPECT_EQ(p.refs, 0u);
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

TEST(ShardedEngineTest, EpochInvalidationMatchesPerLineWalk)
{
    CacheGeometry geom;
    geom.lineBytes = 32;
    geom.numSets = 8;
    geom.assoc = 2;

    PlainLineStore epoch_store(geom, ReplacementKind::LRU, 1);
    WalkInvalidateStore walk_store(geom, ReplacementKind::LRU, 1);

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

TEST(ShardedEngineTest, ReintegrationBumpsEpochOnce)
{
    // System-level proof that hot-swap reintegration rides the O(1)
    // epoch path: one bump, empty store, and the system stays
    // coherent through the cache's cold re-entry.
    System sys{SystemConfig{}};
    for (std::size_t i = 0; i < 2; ++i) {
        CacheSpec spec = test::smallCache();
        spec.numSets = 16;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    for (int i = 0; i < 200; ++i) {
        sys.write(0, static_cast<Addr>(i) * 8, i + 1);
        sys.read(1, static_cast<Addr>(i) * 8);
    }
    const SnoopingCache *cache = sys.cacheOf(0);
    const auto *plain =
        dynamic_cast<const PlainLineStore *>(&cache->store());
    ASSERT_NE(plain, nullptr);
    std::uint32_t before = plain->tags().epoch();

    ASSERT_TRUE(sys.quarantine(0));
    ASSERT_TRUE(sys.reintegrate(0));
    EXPECT_EQ(cache->store().validLineCount(), 0u);
    EXPECT_EQ(plain->tags().epoch(), before + 1);

    for (int i = 0; i < 200; ++i) {
        sys.write(0, static_cast<Addr>(i) * 8, 1000 + i);
        sys.read(1, static_cast<Addr>(i) * 8);
    }
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

} // namespace
} // namespace fbsim
