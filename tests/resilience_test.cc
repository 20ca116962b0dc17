/**
 * @file
 * Resilience layer: hot-swap cache reintegration (the P896 live
 * insertion story) and supervised, checkpointable campaigns.
 *
 * The contracts under test:
 *
 *  - reintegrate() is the exact inverse of quarantine(): the board
 *    rejoins with every line in state I, so the rejoin itself cannot
 *    perturb the shared memory image, and its first accesses are cold
 *    misses that refill through the normal protocol.
 *  - The watchdog escalation ladder (retry -> quarantine on the Nth
 *    trip -> scheduled reintegration) fires deterministically and
 *    every transition is counted and replay-tagged.
 *  - Supervision isolates failures: a throwing or deadline-blown job
 *    becomes a structured report row, retries draw derived sub-seeds,
 *    and the default options reproduce the unsupervised bytes.
 *  - The journal is crash-consistent: any prefix of records resumes
 *    to a byte-identical merged report, torn tails are dropped, and a
 *    foreign journal is rejected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_journal.h"
#include "campaign/campaign_runner.h"
#include "cache/line_store.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "sim/engine.h"
#include "test_util.h"
#include "text/report.h"

namespace fbsim {
namespace {

/** Mixed random workload, as in the fault-injection tests. */
void
drive(System &sys, std::uint64_t seed, int accesses, std::size_t lines)
{
    Rng rng(seed);
    std::size_t clients = sys.numClients();
    std::size_t words = sys.config().lineBytes / kWordBytes;
    for (int i = 0; i < accesses; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(clients));
        Addr addr = rng.below(lines * words) * kWordBytes;
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }
}

void
expectAllAnnotated(const std::vector<std::string> &msgs)
{
    for (const std::string &m : msgs)
        EXPECT_NE(m.find("[fault seed=0x"), std::string::npos) << m;
}

// ---------------------------------------------------------------- //
// Hot-swap reintegration: quarantine() and back.

TEST(ReintegrateTest, ManualReintegrateRestoresCachingService)
{
    System sys(test::testConfig());
    MasterId a = sys.addCache(test::smallCache());
    MasterId b = sys.addCache(test::smallCache());

    sys.write(a, 0x40, 0xbeef);
    ASSERT_TRUE(sys.quarantine(a));
    ASSERT_TRUE(sys.cacheOf(a)->quarantined());
    EXPECT_FALSE(sys.reintegrate(b));     // b was never quarantined

    ASSERT_TRUE(sys.reintegrate(a));
    EXPECT_FALSE(sys.reintegrate(a));     // idempotent
    EXPECT_EQ(sys.reintegrationCount(), 1u);
    EXPECT_FALSE(sys.cacheOf(a)->quarantined());

    // The rejoined cache starts cold: state I everywhere, first read
    // a miss that refills through the normal protocol...
    EXPECT_EQ(sys.cacheOf(a)->lineState(0x40), State::I);
    std::uint64_t misses = sys.cacheOf(a)->stats().readMisses;
    EXPECT_EQ(sys.read(a, 0x40).value, 0xbeefu);
    EXPECT_EQ(sys.cacheOf(a)->stats().readMisses, misses + 1);
    // ...and caches again (quarantine bypass would miss every time).
    std::uint64_t hits = sys.cacheOf(a)->stats().readHits;
    EXPECT_EQ(sys.read(a, 0x40).value, 0xbeefu);
    EXPECT_EQ(sys.cacheOf(a)->stats().readHits, hits + 1);

    sys.write(a, 0x40, 0xcafe);
    EXPECT_EQ(sys.read(b, 0x40).value, 0xcafeu);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

// The issue's acceptance campaign: quarantine -> reintegrate in the
// middle of a >= 10k access mixed Berkeley/Illinois/Firefly fault
// campaign.  Illinois and Firefly are not class members, so the mix
// may diverge on its own; the rejoin contract is therefore a delta
// one: the hot swap itself must not move the needle - the full
// invariant audit reads the same immediately before and after the
// rejoin, and nothing new is recorded by it.
TEST(ReintegrateTest, RejoinLeavesTheSharedImageUntouched)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 0x5eed;
    // Timing-only sites: aborts, delays and drops are recovered by
    // the retry machinery with no state divergence.
    fc.spuriousAbort.probability = 0.02;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 4;
    fc.memoryDelay.probability = 0.01;
    fc.memoryDelayCycles = 16;
    fc.memoryDrop.probability = 0.01;
    cfg.faults = fc;
    System sys(cfg);
    MasterId berkeley = sys.addCache(
        test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Illinois));
    sys.addCache(test::smallCache(ProtocolKind::Firefly));

    drive(sys, 0x1234, 5000, 12);

    // Hot swap mid-campaign.  Violation messages embed the current
    // cache roster (the describeLine state vector), which legitimately
    // differs while a board is out; compare the invariant cores.
    auto cores = [](std::vector<std::string> violations) {
        for (std::string &v : violations)
            v = v.substr(0, v.find(" | line"));
        return violations;
    };
    ASSERT_TRUE(sys.quarantine(berkeley));
    std::vector<std::string> audit_before = cores(sys.checkNow());
    std::size_t recorded_before = sys.violations().size();
    ASSERT_TRUE(sys.reintegrate(berkeley));
    EXPECT_EQ(cores(sys.checkNow()), audit_before);
    EXPECT_EQ(sys.violations().size(), recorded_before);
    EXPECT_EQ(sys.reintegrationCount(), 1u);

    // First post-rejoin accesses are cold I-state misses.
    const CacheStats &stats = sys.cacheOf(berkeley)->stats();
    EXPECT_EQ(sys.cacheOf(berkeley)->lineState(0x40), State::I);
    std::uint64_t misses = stats.readMisses;
    std::size_t recorded = sys.violations().size();
    sys.read(berkeley, 0x40);
    EXPECT_EQ(stats.readMisses, misses + 1);
    EXPECT_EQ(sys.violations().size(), recorded);

    // Second campaign half: the rejoined board participates fully and
    // nothing - violation or event - is ever silent.
    drive(sys, 0x4321, 5000, 12);
    EXPECT_GT(sys.faultInjector()->stats().injected(), 0u);
    expectAllAnnotated(sys.violations());
    expectAllAnnotated(sys.faultEvents());
    bool saw_reintegrate = false;
    for (const std::string &ev : sys.faultEvents())
        saw_reintegrate |= ev.find("reintegrate:") != std::string::npos;
    EXPECT_TRUE(saw_reintegrate);
}

// ---------------------------------------------------------------- //
// The escalation ladder: retry -> watchdog trip -> quarantine on the
// Nth trip -> scheduled reintegration.

TEST(ReintegrateTest, LadderQuarantinesOnlyOnTheConfiguredTrip)
{
    SystemConfig cfg = test::testConfig();
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    cfg.quarantineAfterTrips = 2;   // second trip pulls the board
    FaultConfig fc;
    fc.seed = 23;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 1000;
    cfg.faults = fc;
    System sys(cfg);
    MasterId a = sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    // First watchdog trip (4 faulted accesses): retried, not pulled.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sys.write(a, 0x40, 1).faulted);
    EXPECT_EQ(sys.watchdogTrips(), 1u);
    EXPECT_EQ(sys.quarantineCount(), 0u);
    EXPECT_FALSE(sys.cacheOf(a)->quarantined());

    // Second trip: the ladder escalates to quarantine.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sys.write(a, 0x40, 1).faulted);
    EXPECT_EQ(sys.watchdogTrips(), 2u);
    EXPECT_EQ(sys.quarantineCount(), 1u);
    EXPECT_TRUE(sys.cacheOf(a)->quarantined());
    expectAllAnnotated(sys.faultEvents());
}

TEST(ReintegrateTest, ScheduledReintegrationRejoinsAfterTheFaultWindow)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    cfg.checkEveryAccess = false;
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    cfg.reintegrateAfterCycles = 64;
    FaultConfig fc;
    fc.seed = 41;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 40;
    cfg.faults = fc;
    System sys(cfg);
    sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    VectorStream s0({{true, 0x000}, {true, 0x100}, {true, 0x200}});
    VectorStream s1({{true, 0x300}, {true, 0x400}, {true, 0x500}});
    Engine engine(sys, {});
    EngineResult r = engine.run({&s0, &s1}, 80);

    // The ladder ran end to end: trips, quarantines, and - once the
    // bus had carried reintegrateAfterCycles of healthy traffic -
    // every pulled board rejoined.
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_GT(r.reintegrations, 0u);
    EXPECT_EQ(r.reintegrations, sys.reintegrationCount());
    for (MasterId id = 0; id < sys.numClients(); ++id)
        EXPECT_FALSE(sys.cacheOf(id)->quarantined()) << "cache " << id;
    // Rejoined caches cache again: past the fault window the run
    // completed coherently.
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
    expectAllAnnotated(sys.faultEvents());
}

TEST(ReintegrateTest, ReintegrationBumpsEpochOnce)
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

// ---------------------------------------------------------------- //
// ThreadPool exception capture.

TEST(ThreadPoolTest, PoisonedTaskLeavesThePoolUsable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.submit([] { throw std::runtime_error("poisoned"); });
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);

    std::vector<std::exception_ptr> errors = pool.drainExceptions();
    ASSERT_EQ(errors.size(), 1u);
    try {
        std::rethrow_exception(errors[0]);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "poisoned");
    }
    EXPECT_TRUE(pool.drainExceptions().empty());   // drained

    // The pool survives its poisoned task: new work still runs.
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

// ---------------------------------------------------------------- //
// Supervised campaign execution.

/** Uniform random stream (as in the fault campaign tests). */
class UniformStream : public RefStream
{
  public:
    UniformStream(std::size_t lines, std::size_t words_per_line,
                  std::uint64_t seed)
        : lines_(lines), words_(words_per_line), rng_(seed)
    {
    }

    ProcRef
    next() override
    {
        ProcRef ref;
        ref.addr = rng_.below(lines_ * words_) * kWordBytes;
        ref.write = rng_.chance(0.35);
        return ref;
    }

  private:
    std::size_t lines_;
    std::size_t words_;
    Rng rng_;
};

/** A small two-workload campaign over a class-member mix. */
CampaignSpec
smallSpec(std::uint64_t campaign_seed, std::uint64_t refs,
          std::size_t replicas)
{
    CampaignSpec spec;
    spec.campaignSeed = campaign_seed;
    spec.refsPerProc = refs;
    spec.base = test::testConfig();

    ProtocolMix mix;
    mix.name = "Moesi+Berkeley";
    const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                  ProtocolKind::Berkeley};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache = test::smallCache(kinds[i]);
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mix));

    std::size_t words = spec.base.lineBytes / kWordBytes;
    for (std::size_t rep = 0; rep < replicas; ++rep) {
        WorkloadSpec w;
        w.name = "uniform/rep" + std::to_string(rep);
        w.make = [words](std::size_t proc, std::size_t,
                         std::uint64_t job_seed) {
            return std::unique_ptr<RefStream>(new UniformStream(
                12, words, Rng::deriveSeed(job_seed, proc)));
        };
        spec.workloads.push_back(std::move(w));
    }
    return spec;
}

TEST(SupervisedRunnerTest, DefaultSupervisionReproducesBaselineBytes)
{
    CampaignSpec spec = smallSpec(0x11, 300, 3);
    std::string baseline =
        renderCampaignTable(CampaignRunner(1).run(spec));
    // Default options through the supervised path, serial and
    // threaded: same bytes (and no supervision columns appear).
    EXPECT_EQ(baseline, renderCampaignTable(
                            CampaignRunner(1, SupervisorOptions{})
                                .run(spec)));
    EXPECT_EQ(baseline, renderCampaignTable(
                            CampaignRunner(4, SupervisorOptions{})
                                .run(spec)));
    EXPECT_EQ(baseline.find("status"), std::string::npos);
}

TEST(SupervisedRunnerTest, ThrowingJobBecomesAStructuredFailureRow)
{
    CampaignSpec spec = smallSpec(0x22, 200, 3);
    // Workload 1 throws on every attempt; the others are healthy.
    spec.workloads[1].make = [](std::size_t, std::size_t,
                                std::uint64_t)
        -> std::unique_ptr<RefStream> {
        throw std::runtime_error("synthetic workload fault");
    };

    for (unsigned workers : {1u, 3u}) {
        CampaignReport report =
            CampaignRunner(workers, SupervisorOptions{}).run(spec);
        ASSERT_EQ(report.results.size(), 3u);
        const CampaignResult &bad = report.results[1];
        EXPECT_EQ(bad.status, JobStatus::Failed);
        EXPECT_FALSE(bad.consistent);
        EXPECT_EQ(bad.failureReason, "synthetic workload fault");
        EXPECT_EQ(bad.attempts, 1u);
        EXPECT_EQ(report.results[0].status, JobStatus::Ok);
        EXPECT_EQ(report.results[2].status, JobStatus::Ok);
        EXPECT_FALSE(report.allConsistent());

        std::string table = renderCampaignTable(report);
        EXPECT_NE(table.find("failed"), std::string::npos);
        EXPECT_NE(table.find("synthetic workload fault"),
                  std::string::npos);
    }
}

TEST(SupervisedRunnerTest, RetryDrawsTheDerivedSubSeed)
{
    CampaignSpec spec = smallSpec(0x33, 200, 2);
    // Job 0 fails exactly on its canonical (attempt 0) seed, so one
    // retry - reseeded via deriveSeed(campaignSeed, job, attempt) -
    // succeeds deterministically.
    const std::uint64_t canonical = Rng::deriveSeed(0x33, 0);
    std::size_t words = spec.base.lineBytes / kWordBytes;
    spec.workloads[0].make =
        [words, canonical](std::size_t proc, std::size_t,
                           std::uint64_t job_seed)
        -> std::unique_ptr<RefStream> {
        if (job_seed == canonical)
            throw std::runtime_error("flaky on the canonical seed");
        return std::unique_ptr<RefStream>(new UniformStream(
            12, words, Rng::deriveSeed(job_seed, proc)));
    };

    SupervisorOptions sup;
    sup.retries = 1;
    CampaignReport report = CampaignRunner(1, sup).run(spec);
    const CampaignResult &retried = report.results[0];
    EXPECT_EQ(retried.status, JobStatus::Ok);
    EXPECT_EQ(retried.attempts, 2u);
    EXPECT_EQ(retried.job.seed, Rng::deriveSeed(0x33, 0, 1));
    EXPECT_EQ(report.results[1].status, JobStatus::Ok);
    EXPECT_EQ(report.results[1].attempts, 1u);

    // Without the retry budget the same campaign reports the failure.
    CampaignReport unretried =
        CampaignRunner(1, SupervisorOptions{}).run(spec);
    EXPECT_EQ(unretried.results[0].status, JobStatus::Failed);
}

TEST(SupervisedRunnerTest, DeadlineCancelsCooperativelyAsTimedOut)
{
    // A job far too large to finish inside the deadline; the engine
    // must stop at a poll point, not hang.
    CampaignSpec spec = smallSpec(0x44, 500000000ull, 1);
    SupervisorOptions sup;
    sup.timeoutMs = 20;
    CampaignReport report = CampaignRunner(1, sup).run(spec);
    const CampaignResult &r = report.results[0];
    EXPECT_EQ(r.status, JobStatus::TimedOut);
    EXPECT_TRUE(r.engine.cancelled);
    EXPECT_FALSE(r.consistent);
    EXPECT_NE(r.failureReason.find("deadline"), std::string::npos);
    // Partial statistics are real work, not zeros.
    EXPECT_GT(r.totalRefs(), 0u);
    EXPECT_LT(r.totalRefs(), 500000000ull);

    std::string table = renderCampaignTable(report);
    EXPECT_NE(table.find("timeout"), std::string::npos);
}

// ---------------------------------------------------------------- //
// The journal: bit-exact round trips and crash-consistent resume.

TEST(JournalTest, RecordsRoundTripBitExact)
{
    CampaignSpec spec = smallSpec(0x55, 250, 2);
    CampaignReport report = CampaignRunner(1).run(spec);
    for (const CampaignResult &r : report.results) {
        std::string line = encodeJournalRecord(r);
        std::optional<CampaignResult> back = decodeJournalRecord(line);
        ASSERT_TRUE(back.has_value());
        // Re-encoding the decoded record proves every field survived.
        EXPECT_EQ(encodeJournalRecord(*back), line);
        EXPECT_EQ(back->job.index, r.job.index);
        EXPECT_EQ(back->job.seed, r.job.seed);
        EXPECT_TRUE(back->bus == r.bus);
        EXPECT_EQ(back->violations, r.violations);
        EXPECT_EQ(back->faultReport, r.faultReport);
    }

    // A rebuilt report renders the same bytes as the live one.
    CampaignReport rebuilt = report;
    for (CampaignResult &r : rebuilt.results)
        r = *decodeJournalRecord(encodeJournalRecord(r));
    EXPECT_EQ(renderCampaignTable(report),
              renderCampaignTable(rebuilt));
}

TEST(JournalTest, KillAndResumeMergesByteIdentically)
{
    const std::string path =
        testing::TempDir() + "fbsim_resume_test.journal";
    std::remove(path.c_str());

    CampaignSpec spec = smallSpec(0x66, 250, 4);
    std::string baseline =
        renderCampaignTable(CampaignRunner(1).run(spec));

    // Journaled, uninterrupted run: journaling changes nothing.
    SupervisorOptions sup;
    sup.journalPath = path;
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(2, sup).run(spec)));

    // Simulate kill -9 after two checkpoints: keep the header and two
    // records, then a torn half-record with no newline.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n';
        out << lines[3].substr(0, lines[3].size() / 2);   // torn
    }

    // Resume: the two surviving jobs merge verbatim, the rest re-run,
    // and the merged table is byte-identical at any worker count.
    sup.resume = true;
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(3, sup).run(spec)));
    // A second resume finds everything done and still agrees.
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(1, sup).run(spec)));
    std::remove(path.c_str());
}

TEST(JournalTest, LoaderDropsGarbageAndTornRecords)
{
    const std::string path =
        testing::TempDir() + "fbsim_torn_test.journal";
    std::remove(path.c_str());

    CampaignSpec spec = smallSpec(0x77, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    CampaignReport report = CampaignRunner(1).run(spec);
    {
        CampaignJournal journal(path, fp, spec.numJobs());
        journal.append(report.results[0]);
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "job 1 this is not a record end\n";
        out << encodeJournalRecord(report.results[1]).substr(0, 40);
    }
    std::vector<CampaignResult> loaded = loadCampaignJournal(path, fp);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].job.index, 0u);
    EXPECT_EQ(encodeJournalRecord(loaded[0]),
              encodeJournalRecord(report.results[0]));
    std::remove(path.c_str());
}

TEST(JournalTest, ForeignJournalIsRejected)
{
    const std::string path =
        testing::TempDir() + "fbsim_foreign_test.journal";
    std::remove(path.c_str());
    CampaignSpec spec = smallSpec(0x88, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    { CampaignJournal journal(path, fp, spec.numJobs()); }

    // A different spec (different seed) fingerprints differently...
    CampaignSpec other = smallSpec(0x89, 200, 2);
    EXPECT_NE(campaignFingerprint(other), fp);
    // ...and both the loader and the appender refuse the file.
    EXPECT_EXIT(loadCampaignJournal(path, campaignFingerprint(other)),
                ::testing::ExitedWithCode(1), "fingerprint");
    auto reopen = [&] {
        CampaignJournal journal(path, campaignFingerprint(other),
                                other.numJobs());
    };
    EXPECT_EXIT(reopen(), ::testing::ExitedWithCode(1), "fingerprint");
    std::remove(path.c_str());
}

TEST(JournalTest, OlderFormatVersionIsNamed)
{
    const std::string path =
        testing::TempDir() + "fbsim_v4_test.journal";
    std::remove(path.c_str());
    CampaignSpec spec = smallSpec(0x8a, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    {
        // The header a v4 build wrote for this very campaign.
        std::ofstream out(path);
        out << strprintf("fbsim-campaign-journal v4 fp=%016llx jobs=%zu\n",
                         static_cast<unsigned long long>(fp),
                         spec.numJobs());
    }
    // Both sides name the version, not a foreign campaign.
    EXPECT_EXIT(loadCampaignJournal(path, fp),
                ::testing::ExitedWithCode(1),
                "format v4; this build reads v5");
    auto reopen = [&] {
        CampaignJournal journal(path, fp, spec.numJobs());
    };
    EXPECT_EXIT(reopen(), ::testing::ExitedWithCode(1), "v4");
    std::remove(path.c_str());
}

} // namespace
} // namespace fbsim
