/**
 * @file
 * Tests of the timed engine: cycle accounting, utilization metrics,
 * contention behaviour and determinism, byte-identity of the
 * engine's fused hit path against its generic path, and cooperative
 * cancellation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "protocols/factory.h"
#include "protocols/transition_coverage.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

SystemConfig
timedConfig()
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    cfg.checkEveryAccess = false;   // timed runs use spot checks
    return cfg;
}

TEST(EngineTest, AllReferencesExecute)
{
    System sys(timedConfig());
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec = test::smallCache();
        spec.numSets = 16;
        sys.addCache(spec);
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, 3, 1);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    Engine engine(sys, {});
    EngineResult r = engine.run(raw, 500);
    ASSERT_EQ(r.procs.size(), 3u);
    for (const ProcTiming &p : r.procs) {
        EXPECT_EQ(p.refs, 500u);
        EXPECT_GT(p.finishTime, 0u);
        EXPECT_GT(p.utilization(), 0.0);
        EXPECT_LE(p.utilization(), 1.0);
    }
    EXPECT_LE(r.busBusy, r.elapsed);
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

TEST(EngineTest, HitsDontTouchTheBus)
{
    System sys(timedConfig());
    CacheSpec spec = test::smallCache();
    spec.numSets = 16;
    sys.addCache(spec);
    // A single line hammered by one processor: one miss, then hits.
    VectorStream stream({{false, 0x100}});
    Engine engine(sys, {});
    EngineResult r = engine.run({&stream}, 100);
    EXPECT_EQ(sys.bus().stats().transactions, 1u);
    // Utilization approaches 1: only the first access stalled.
    EXPECT_GT(r.procs[0].utilization(), 0.85);
}

TEST(EngineTest, ContentionDegradesUtilization)
{
    // The more processors share the bus, the lower each utilization -
    // the basic section 5.2 / [Arch85] effect.
    double util[2];
    for (int n_idx = 0; n_idx < 2; ++n_idx) {
        std::size_t n = n_idx == 0 ? 2 : 8;
        System sys(timedConfig());
        for (std::size_t i = 0; i < n; ++i) {
            CacheSpec spec = test::smallCache();
            spec.numSets = 8;
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        params.pShared = 0.4;   // heavy sharing to load the bus
        params.sharedLines = 8;
        auto streams = makeArch85Streams(params, n, 5);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        util[n_idx] = engine.run(raw, 400).meanUtilization();
    }
    EXPECT_GT(util[0], util[1]);
}

TEST(EngineTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        System sys(timedConfig());
        for (int i = 0; i < 4; ++i) {
            CacheSpec spec = test::smallCache();
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 9);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        EngineResult r = engine.run(raw, 300);
        return std::make_pair(r.elapsed, r.busBusy);
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(EngineTest, ArbitrationKindsBothComplete)
{
    for (ArbitrationKind kind :
         {ArbitrationKind::FixedPriority, ArbitrationKind::RoundRobin}) {
        System sys(timedConfig());
        for (int i = 0; i < 3; ++i) {
            CacheSpec spec = test::smallCache();
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        params.pShared = 0.5;
        auto streams = makeArch85Streams(params, 3, 2);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        EngineConfig cfg;
        cfg.arbitration = kind;
        Engine engine(sys, cfg);
        EngineResult r = engine.run(raw, 200);
        for (const ProcTiming &p : r.procs)
            EXPECT_EQ(p.refs, 200u);
    }
}

TEST(EngineTest, WriteThroughLoadsTheBusMoreThanCopyBack)
{
    auto bus_util = [](bool write_through) {
        System sys(timedConfig());
        for (int i = 0; i < 4; ++i) {
            CacheSpec spec = test::smallCache();
            spec.numSets = 32;
            spec.writeThrough = write_through;
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 3);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        return engine.run(raw, 500).busUtilization();
    };
    // Section 1/3.1: copy-back cuts the bandwidth requirement.
    EXPECT_GT(bus_util(true), bus_util(false));
}

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

/**
 * Run `streams` on `sys` under `ec` and collect everything.  With
 * `fast_path` false every cache gets a transition-coverage recorder,
 * which disarms the devirtualized hit path (fastPathEnabled()), so the
 * engine and the caches take only the generic table-driven path.
 */
Observed
observe(System &sys, const std::vector<std::unique_ptr<RefStream>> &streams,
        EngineConfig ec, std::uint64_t refs_per_proc, bool fast_path = true)
{
    std::vector<TransitionCoverage> coverage(sys.numClients());
    for (MasterId id = 0; id < sys.numClients(); ++id) {
        SnoopingCache *c = sys.cacheOf(id);
        if (!fast_path)
            c->setCoverage(&coverage[id]);
        // A vacuous comparison would pass for the wrong reason.
        EXPECT_EQ(c->fastPathEnabled(), fast_path);
    }
    std::vector<RefStream *> raw;
    for (const auto &s : streams)
        raw.push_back(s.get());
    Observed o;
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

/** One timed run of an Arch85 workload over the given protocol mix;
 *  `with_faults` arms timing faults (spurious aborts, memory
 *  delays). */
Observed
runArch85(const std::vector<ProtocolKind> &mix, bool fast_path,
          bool with_faults = false)
{
    SystemConfig cfg = timedConfig();
    if (with_faults) {
        FaultConfig fc;
        fc.seed = 11;
        fc.spuriousAbort.probability = 0.02;
        fc.memoryDelay.probability = 0.01;
        cfg.faults = fc;
    }
    System sys(cfg);
    for (std::size_t i = 0; i < mix.size(); ++i) {
        CacheSpec cs = test::smallCache(mix[i]);
        cs.numSets = 16;
        cs.assoc = 2;
        cs.seed = i + 1;
        sys.addCache(cs);
    }
    Arch85Params params;
    return observe(sys, makeArch85Streams(params, mix.size(), 7), {}, 1500,
                   fast_path);
}

const std::vector<std::vector<ProtocolKind>> kMixes = {
    {ProtocolKind::Moesi, ProtocolKind::Moesi, ProtocolKind::Moesi,
     ProtocolKind::Moesi},
    {ProtocolKind::Berkeley, ProtocolKind::Berkeley,
     ProtocolKind::Berkeley, ProtocolKind::Berkeley},
    {ProtocolKind::Dragon, ProtocolKind::Dragon, ProtocolKind::Dragon,
     ProtocolKind::Dragon},
    {ProtocolKind::Illinois, ProtocolKind::Illinois,
     ProtocolKind::Firefly, ProtocolKind::Firefly},
    {ProtocolKind::Berkeley, ProtocolKind::Illinois,
     ProtocolKind::Dragon, ProtocolKind::Moesi},
};

TEST(EngineTest, FusedHitPathMatchesGenericPath)
{
    for (bool with_faults : {false, true}) {
        for (const auto &mix : kMixes) {
            Observed slow = runArch85(mix, false, with_faults);
            ASSERT_GT(slow.bus.transactions, 0u);
            Observed fast = runArch85(mix, true, with_faults);
            expectIdentical(slow, fast);
        }
    }
}

/**
 * Ping-pong on a few hot lines under an invalidating protocol: runs of
 * read hits are regularly cut short by a foreign write's invalidation,
 * so the fused probe must decline exactly where the generic path goes
 * to the bus.
 */
Observed
runPingPong(bool fast_path)
{
    System sys(timedConfig());
    const std::size_t procs = 4;
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        CacheSpec cs = test::smallCache(ProtocolKind::Berkeley);
        cs.numSets = 16;
        cs.assoc = 2;
        cs.seed = p + 1;
        sys.addCache(cs);
        streams.push_back(std::make_unique<PingPongWorkload>(
            32, 3, p, p + 21, 2));
    }
    return observe(sys, streams, {}, 2000, fast_path);
}

TEST(EngineTest, FusedHitPathMatchesGenericPathPingPong)
{
    Observed slow = runPingPong(false);
    Observed fast = runPingPong(true);
    expectIdentical(slow, fast);
    // The workload must actually contend: invalidations kill copies.
    std::uint64_t invalidated = 0;
    for (const CacheStats &c : fast.caches)
        invalidated += c.invalidationsRecv;
    EXPECT_GT(invalidated, 0u);
    EXPECT_TRUE(fast.violations.empty());
    EXPECT_TRUE(fast.checkNow.empty());
}

/**
 * Migratory read-modify-write bursts on one shared line, then private
 * read hits for the rest of the stream: the long private tail runs
 * almost entirely on the fused hit path.
 */
class SharedThenPrivateWorkload : public RefStream
{
  public:
    SharedThenPrivateWorkload(std::size_t proc, std::uint64_t shared_refs)
        : proc_(proc), sharedRefs_(shared_refs)
    {
    }

    ProcRef
    next() override
    {
        ProcRef ref;
        if (n_ < sharedRefs_) {
            // Seven reads then one write per visit, staggered by proc.
            ref.addr = (n_ % 4) * kWordBytes;
            ref.write = (n_ + proc_) % 8 == 0;
        } else {
            // Two private lines, far from the shared one.
            ref.addr = (Addr{1} << 20) + proc_ * 64 + (n_ % 8) * kWordBytes;
        }
        ++n_;
        return ref;
    }

  private:
    std::size_t proc_;
    std::uint64_t sharedRefs_;
    std::uint64_t n_ = 0;
};

Observed
runSharedThenPrivate(bool fast_path)
{
    System sys(timedConfig());
    const std::size_t procs = 4;
    const std::uint64_t kShared = 400;
    const std::uint64_t kTail = 6000;
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        CacheSpec cs = test::smallCache(ProtocolKind::Berkeley);
        cs.numSets = 16;
        cs.assoc = 2;
        cs.seed = p + 1;
        sys.addCache(cs);
        streams.push_back(
            std::make_unique<SharedThenPrivateWorkload>(p, kShared));
    }
    return observe(sys, streams, {}, kShared + kTail, fast_path);
}

TEST(EngineTest, FusedHitPathMatchesGenericPathSharedThenPrivate)
{
    Observed slow = runSharedThenPrivate(false);
    Observed fast = runSharedThenPrivate(true);
    expectIdentical(slow, fast);
    EXPECT_TRUE(fast.violations.empty());
}

/**
 * Interleaves `inner`'s references with reads that stream through a
 * private region, all in cache set 0 of the 64-set, 32-byte-line test
 * caches: every second reference misses, the bus stays contended, and
 * the reader keeps losing its copy of buffer line 0 (set 0 too), so
 * it re-reads that line from the producer again and again.
 */
class WithPrivateMisses : public RefStream
{
  public:
    WithPrivateMisses(std::unique_ptr<RefStream> inner, std::size_t proc)
        : inner_(std::move(inner)), base_((Addr{proc} + 1) << 24)
    {
    }

    ProcRef
    next() override
    {
        if (n_++ % 2 == 0)
            return inner_->next();
        ProcRef r;
        r.addr = base_ + (n_ % 256) * 64 * 32;
        return r;
    }

  private:
    std::unique_ptr<RefStream> inner_;
    Addr base_;
    std::uint64_t n_ = 0;
};

/** P2's producer-consumer shape: one producer streams writes over a
 *  four-line buffer that five consumers read, every cache built from
 *  `base`; `contended` adds a private miss after every consumer
 *  reference. */
Observed
runProducerConsumer(const CacheSpec &base, bool fast_path,
                    bool contended = false)
{
    System sys(timedConfig());
    const std::size_t procs = 6;
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        CacheSpec cs = base;
        cs.numSets = 64;
        cs.assoc = 2;
        cs.seed = p + 1;
        sys.addCache(cs);
        auto pc = std::make_unique<ProducerConsumerWorkload>(
            32, 4, /*producer=*/p == 0, p + 1);
        if (contended && p != 0)
            streams.push_back(
                std::make_unique<WithPrivateMisses>(std::move(pc), p));
        else
            streams.push_back(std::move(pc));
    }
    return observe(sys, streams, {}, 8000, fast_path);
}

TEST(EngineTest, FusedHitPathMatchesGenericPathProducerConsumer)
{
    for (MoesiPolicy::SharedWrite sw :
         {MoesiPolicy::SharedWrite::Invalidate,
          MoesiPolicy::SharedWrite::Broadcast}) {
        CacheSpec cs;
        cs.chooser = ChooserKind::Policy;
        cs.policy.sharedWrite = sw;
        Observed slow = runProducerConsumer(cs, false);
        Observed fast = runProducerConsumer(cs, true);
        expectIdentical(slow, fast);
        std::uint64_t committed = 0;
        for (const ProcTiming &p : fast.engine.procs)
            committed += p.refs;
        EXPECT_EQ(committed, 6u * 8000u);
        EXPECT_TRUE(fast.violations.empty());
    }
}

TEST(EngineTest, FusedHitPathMatchesGenericPathOnReadMismatch)
{
    // A deliberately broken Illinois: a write to a shared line jumps
    // to M without the bus, so the consumers keep stale copies of the
    // producer's buffer and read the wrong values.  The generic path
    // sends that write to arbitration (wouldUseBus says S writes need
    // the bus); the fused probe must decline it rather than execute
    // it out of turn, and the oracle must flag the same stale reads
    // on both paths.
    ProtocolTable bad = protocolTable(ProtocolKind::Illinois);
    LocalAction silent_jump;
    silent_jump.next = toState(State::M);
    silent_jump.usesBus = false;
    bad.setLocal(State::S, LocalEvent::Write, {silent_jump});

    CacheSpec cs = test::smallCache(ProtocolKind::Illinois);
    cs.table = &bad;
    for (bool contended : {false, true}) {
        Observed slow = runProducerConsumer(cs, false, contended);
        Observed fast = runProducerConsumer(cs, true, contended);
        expectIdentical(slow, fast);
        EXPECT_FALSE(fast.violations.empty());
    }
}

TEST(EngineTest, DeadlineFiresBeforeTheFirstReference)
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

    Engine engine(sys, {});

    RunControl control;
    control.hasDeadline = true;
    control.deadline = std::chrono::steady_clock::now();
    control.checkEveryRefs = 1;

    EngineResult r = engine.run(raw, 1u << 20, &control);
    EXPECT_TRUE(r.cancelled);
    // With checkEveryRefs = 1 the loop polls before every reference,
    // so an already-expired deadline stops the run before any
    // reference executes.
    for (const ProcTiming &p : r.procs)
        EXPECT_EQ(p.refs, 0u);
}

} // namespace
} // namespace fbsim
