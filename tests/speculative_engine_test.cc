/**
 * @file
 * Byte-identity of Strict ordering with the interleaved scheduler.
 *
 * Strict ordering promises interleaved *semantics*: NOTHING observable
 * may change versus the classic interleaved scheduler - the
 * EngineResult, every cache's counters, the bus counters, the
 * checker's verdicts and the functional access log.  Strict once ran
 * a speculative post-grant loop (batched local hits, rollback on snoop
 * conflicts, a bounded replay window); it now runs the interleaved
 * loop itself, and the speculation counters (SpecStats) always read
 * zero.  These tests pin the identity byte-for-byte across protocol
 * mixes, with fault injection armed, and on the adversarial workloads
 * that used to force rollbacks and window-full commits, so any future
 * scheduling shortcut behind Strict is held to the same contract.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

/** Run `streams` on `sys` under `ec` and collect everything. */
Observed
observe(System &sys, const std::vector<std::unique_ptr<RefStream>> &streams,
        EngineConfig ec, std::uint64_t refs_per_proc)
{
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

/** One timed run of an Arch85 workload over the given protocol mix. */
Observed
runArch85(const std::vector<ProtocolKind> &mix, EngineOrdering ordering,
          bool with_faults, SpecStats *spec = nullptr,
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
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    return observe(sys, makeArch85Streams(params, mix.size(), 7), ec,
                   refs_per_proc);
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

/** No loop speculates any more: every counter must stay zero. */
void
expectNoSpeculation(const SpecStats &spec)
{
    EXPECT_EQ(spec.batches, 0u);
    EXPECT_EQ(spec.specRefs, 0u);
    EXPECT_EQ(spec.rollbacks, 0u);
    EXPECT_EQ(spec.rolledBackRefs, 0u);
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
     ProtocolKind::Firefly, ProtocolKind::Moesi},
};

TEST(SpeculativeEngineTest, StrictMatchesInterleavedByteIdentical)
{
    for (const auto &mix : kMixes) {
        Observed inter =
            runArch85(mix, EngineOrdering::Interleaved, false);
        ASSERT_GT(inter.bus.transactions, 0u);
        SpecStats spec;
        Observed strict =
            runArch85(mix, EngineOrdering::Strict, false, &spec);
        expectIdentical(inter, strict);
        expectNoSpeculation(spec);
    }
}

TEST(SpeculativeEngineTest, FaultCampaignsFallBackIdentically)
{
    // With an injector armed the access path is not plain, so every
    // access takes the generic System path whatever the ordering;
    // everything must still match exactly.
    for (const auto &mix : kMixes) {
        Observed inter =
            runArch85(mix, EngineOrdering::Interleaved, true);
        SpecStats spec;
        Observed strict =
            runArch85(mix, EngineOrdering::Strict, true, &spec);
        expectIdentical(inter, strict);
        expectNoSpeculation(spec);
    }
}

/**
 * Ping-pong on a few hot lines under an invalidating protocol: a run
 * of read hits is regularly killed by a foreign write's invalidation,
 * the shape that forced mid-batch rollbacks in the speculative loop.
 * Strict must order every hit exactly as the interleaved loop does.
 */
Observed
runPingPong(EngineOrdering ordering, SpecStats *spec)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System sys(cfg);
    const std::size_t procs = 4;
    for (std::size_t i = 0; i < procs; ++i) {
        CacheSpec spec_i = test::smallCache(ProtocolKind::Berkeley);
        spec_i.numSets = 16;
        spec_i.assoc = 2;
        spec_i.seed = i + 1;
        sys.addCache(spec_i);
    }
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        streams.push_back(std::make_unique<PingPongWorkload>(
            32, 3, p, p + 21, 2));
    }
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    return observe(sys, streams, ec, 2000);
}

TEST(SpeculativeEngineTest, MidBatchRollbackIsInvisible)
{
    Observed inter = runPingPong(EngineOrdering::Interleaved, nullptr);
    SpecStats spec;
    Observed strict = runPingPong(EngineOrdering::Strict, &spec);
    expectIdentical(inter, strict);
    expectNoSpeculation(spec);
    // The workload must actually contend: invalidations kill copies.
    std::uint64_t invalidated = 0;
    for (const CacheStats &c : strict.caches)
        invalidated += c.invalidationsRecv;
    EXPECT_GT(invalidated, 0u);
    EXPECT_TRUE(inter.violations.empty());
    EXPECT_TRUE(inter.checkNow.empty());
}

/**
 * The cliff shape of experiment P2: one producer streams writes over a
 * four-line buffer that five consumers read, under the invalidating
 * MOESI policy.  Each producer write kills the consumers' copies; the
 * speculative loop replayed thousands of refs per committed ref here.
 * Strict must commit every reference once, in interleaved order.
 */
Observed
runProducerConsumer(EngineOrdering ordering, SpecStats *spec)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System sys(cfg);
    const std::size_t procs = 6;
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        CacheSpec cs;
        cs.chooser = ChooserKind::Policy;
        cs.policy.sharedWrite = MoesiPolicy::SharedWrite::Invalidate;
        cs.numSets = 64;
        cs.assoc = 2;
        cs.seed = p + 1;
        sys.addCache(cs);
        streams.push_back(std::make_unique<ProducerConsumerWorkload>(
            32, 4, /*producer=*/p == 0, p + 1));
    }
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    return observe(sys, streams, ec, 8000);
}

TEST(SpeculativeEngineTest, ProducerConsumerInvalidateReplayIsBounded)
{
    Observed inter =
        runProducerConsumer(EngineOrdering::Interleaved, nullptr);
    SpecStats spec;
    Observed strict = runProducerConsumer(EngineOrdering::Strict, &spec);
    expectIdentical(inter, strict);
    std::uint64_t committed = 0;
    for (const ProcTiming &p : strict.engine.procs)
        committed += p.refs;
    EXPECT_EQ(committed, 6u * 8000u);
    expectNoSpeculation(spec);
    EXPECT_TRUE(inter.violations.empty());
}

/**
 * Migratory read-modify-write bursts on one shared line, then private
 * read hits for the rest of the stream: the shape on which the
 * speculative loop advanced on window-full commits alone.  The long
 * private tail runs almost entirely on the fused hit path.
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
runSharedThenPrivate(EngineOrdering ordering, SpecStats *spec,
                     std::uint64_t shared_refs, std::uint64_t refs)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System sys(cfg);
    const std::size_t procs = 4;
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::size_t p = 0; p < procs; ++p) {
        CacheSpec cs = test::smallCache(ProtocolKind::Berkeley);
        cs.numSets = 16;
        cs.assoc = 2;
        cs.seed = p + 1;
        sys.addCache(cs);
        streams.push_back(
            std::make_unique<SharedThenPrivateWorkload>(p, shared_refs));
    }
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    return observe(sys, streams, ec, refs);
}

TEST(SpeculativeEngineTest, WindowFullCommitsAloneAreInvisible)
{
    const std::uint64_t kShared = 400;
    const std::uint64_t kTail = 6000;
    Observed inter = runSharedThenPrivate(EngineOrdering::Interleaved,
                                          nullptr, kShared,
                                          kShared + kTail);
    SpecStats spec;
    Observed strict = runSharedThenPrivate(EngineOrdering::Strict, &spec,
                                           kShared, kShared + kTail);
    expectIdentical(inter, strict);
    expectNoSpeculation(spec);
    EXPECT_TRUE(inter.violations.empty());
}

} // namespace
} // namespace fbsim
