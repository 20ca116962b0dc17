#include "campaign/campaign_runner.h"

#include <atomic>
#include <chrono>

#include "campaign/campaign_journal.h"
#include "common/bounded_queue.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "hier/hier_engine.h"
#include "obs/export.h"
#include "obs/latency.h"
#include "obs/trace_sink.h"
#include "text/report.h"

namespace fbsim {

const std::vector<std::vector<ProcRef>> &
CampaignScratch::shards(const std::vector<TraceRef> &trace,
                        std::size_t procs)
{
    if (traceKey_ == &trace && shardProcs_ == procs)
        return shards_;
    if (shards_.size() < procs)
        shards_.resize(procs);
    for (std::size_t p = 0; p < procs; ++p)
        shards_[p].clear();
    for (const TraceRef &r : trace) {
        fbsim_assert(r.proc < procs);
        shards_[r.proc].push_back({r.write, r.addr});
    }
    for (std::size_t p = 0; p < procs; ++p) {
        if (shards_[p].empty())
            shards_[p].push_back({false, 0});
    }
    traceKey_ = &trace;
    shardProcs_ = procs;
    return shards_;
}

std::vector<CampaignJob>
expandCampaign(const CampaignSpec &spec)
{
    fbsim_assert(!spec.mixes.empty());
    fbsim_assert(!spec.workloads.empty());
    std::vector<CampaignJob> jobs;
    jobs.reserve(spec.numJobs());
    CampaignJob job;
    for (std::size_t mi = 0; mi < spec.numMixes(); ++mi) {
        for (std::size_t gi = 0; gi < spec.numGeometries(); ++gi) {
            for (std::size_t ci = 0; ci < spec.numCosts(); ++ci) {
                for (std::size_t wi = 0; wi < spec.numWorkloads();
                     ++wi) {
                    for (std::size_t fi = 0; fi < spec.numFaults();
                         ++fi) {
                        job.index = jobs.size();
                        job.mixIdx = mi;
                        job.geometryIdx = gi;
                        job.costIdx = ci;
                        job.workloadIdx = wi;
                        job.faultIdx = fi;
                        job.seed = Rng::deriveSeed(spec.campaignSeed,
                                                   job.index);
                        jobs.push_back(job);
                    }
                }
            }
        }
    }
    return jobs;
}

CampaignResult
runCampaignJob(const CampaignSpec &spec, const CampaignJob &job,
               CampaignScratch &scratch, const RunControl *control,
               TraceSink *trace)
{
    const ProtocolMix &mix = spec.mixes[job.mixIdx];
    const std::size_t procs = mix.slots.size();
    fbsim_assert(procs > 0);

    // Declared before the System so the bus's raw pointer to it can
    // never dangle, even during System teardown.
    LatencyRecorder latency(procs);

    // Per-job axis points, applied below to whichever configuration
    // (flat SystemConfig or HierConfig) the job builds.
    const GeometryPoint *geometry =
        spec.geometries.empty() ? nullptr
                                : &spec.geometries[job.geometryIdx];
    const bool haveFaultAxis =
        static_cast<bool>(spec.faultFactory) || !spec.faults.empty();
    std::optional<FaultConfig> jobFaults;
    if (spec.faultFactory)
        jobFaults = spec.faultFactory(job.seed, job.index);
    else if (!spec.faults.empty())
        jobFaults = spec.faults[job.faultIdx].faults;

    // Reference streams: trace shards (worker-cached) or the
    // workload factory, seeded from the job seed.
    const WorkloadSpec &workload = spec.workloads[job.workloadIdx];
    scratch.streams.clear();
    scratch.raw.clear();
    if (workload.trace) {
        const auto &shards = scratch.shards(*workload.trace, procs);
        for (std::size_t p = 0; p < procs; ++p) {
            scratch.streams.push_back(
                std::make_unique<SpanStream>(shards[p]));
            scratch.raw.push_back(scratch.streams.back().get());
        }
    } else {
        fbsim_assert(static_cast<bool>(workload.make));
        for (std::size_t p = 0; p < procs; ++p) {
            scratch.streams.push_back(
                workload.make(p, procs, job.seed));
            scratch.raw.push_back(scratch.streams.back().get());
        }
    }

    std::uint64_t refs = workload.refsPerProc ? workload.refsPerProc
                                              : spec.refsPerProc;
    fbsim_assert(refs > 0);

    CampaignResult result;
    result.job = job;
    EngineConfig ecfg = spec.engine;
    if (trace)
        ecfg.trace = trace;

    if (spec.clusters > 1) {
        // Hierarchical job: a private HierSystem (root bus, bridges,
        // leaf buses) driven by a HierEngine.  HierEngine::run has no
        // cancellation hook, so a supervised deadline cannot interrupt
        // a hier job mid-run - the run always completes and supervision
        // only classifies it afterwards.  Per-master latency recording
        // is skipped: leaf master ids are cluster-local and would
        // collide in one recorder.
        (void)control;
        HierConfig hc = spec.hier;
        hc.lineBytes = spec.base.lineBytes;
        if (geometry && geometry->lineBytes)
            hc.lineBytes = geometry->lineBytes;
        if (!spec.costs.empty()) {
            hc.rootCost = spec.costs[job.costIdx].cost;
            hc.leafCost = hc.rootCost;
        }
        if (haveFaultAxis)
            hc.faults = jobFaults;
        HierSystem system(hc, spec.clusters);
        if (trace)
            system.attachTrace(trace);
        std::size_t slotIdx = 0;
        for (const MixSlot &slot : mix.slots) {
            const std::size_t cluster = slotIdx++ % spec.clusters;
            if (slot.nonCaching) {
                system.addNonCachingMaster(cluster,
                                           slot.broadcastWrites);
                continue;
            }
            CacheSpec cache = slot.cache;
            if (geometry && geometry->numSets)
                cache.numSets = geometry->numSets;
            if (geometry && geometry->assoc)
                cache.assoc = geometry->assoc;
            system.addCache(cluster, cache);
        }

        HierEngine engine(system, ecfg);
        HierEngineResult hres = engine.run(scratch.raw, refs);
        result.engine.elapsed = hres.elapsed;
        result.engine.busBusy = hres.rootBusy;
        result.engine.faultedRefs = hres.faultedRefs;
        result.engine.watchdogTrips = hres.watchdogTrips;
        result.engine.quarantines = hres.quarantines;
        result.engine.reintegrations = hres.reintegrations;
        result.engine.procs = std::move(hres.procs);

        result.bus = system.rootBus().stats();
        for (MasterId id = 0; id < system.numClients(); ++id) {
            if (const SnoopingCache *cache = system.cacheOf(id))
                result.cacheTotals += cache->stats();
        }
        result.violations = system.violations();
        if (spec.terminalCheck) {
            for (std::string &v : system.checkNow())
                result.violations.push_back(std::move(v));
        }
        result.consistent = result.violations.empty();
        result.faultEvents = system.faultEvents();
        result.watchdogTrips = system.watchdogTrips();
        result.quarantines = system.quarantineCount();
        result.reintegrations = system.reintegrationCount();
        result.scrubDivergence = system.scrubDivergence();
        if (const FaultInjector *injector = system.faults()) {
            result.faults = injector->stats();
            result.faultReport = renderFaultReport(system);
        }

        MetricRegistry reg;
        exportEngineMetrics(reg, result.engine);
        exportHierMetrics(reg, system);
        result.metrics = reg.snapshot();
        return result;
    }

    // Per-job configuration: base overridden by the job's axis points.
    SystemConfig config = spec.base;
    if (geometry && geometry->lineBytes)
        config.lineBytes = geometry->lineBytes;
    if (!spec.costs.empty())
        config.cost = spec.costs[job.costIdx].cost;
    if (haveFaultAxis)
        config.faults = jobFaults;

    // The job's own shared-nothing System (and, via config.faults,
    // its own FaultInjector - injectors are per-System by contract).
    System system(config);
    system.bus().setLatencyRecorder(&latency);
    if (trace)
        system.attachTrace(trace);
    for (const MixSlot &slot : mix.slots) {
        if (slot.nonCaching) {
            system.addNonCachingMaster(slot.broadcastWrites);
            continue;
        }
        CacheSpec cache = slot.cache;
        if (geometry && geometry->numSets)
            cache.numSets = geometry->numSets;
        if (geometry && geometry->assoc)
            cache.assoc = geometry->assoc;
        system.addCache(cache);
    }

    ecfg.latency = &latency;
    Engine engine(system, ecfg);
    result.engine = engine.run(scratch.raw, refs, control);

    result.bus = system.bus().stats();
    for (MasterId id = 0; id < system.numClients(); ++id) {
        if (const SnoopingCache *cache = system.cacheOf(id))
            result.cacheTotals += cache->stats();
    }
    result.violations = system.violations();
    if (spec.terminalCheck) {
        for (std::string &v : system.checkNow())
            result.violations.push_back(std::move(v));
    }
    result.consistent = result.violations.empty();
    result.faultEvents = system.faultEvents();
    result.watchdogTrips = system.watchdogTrips();
    result.quarantines = system.quarantineCount();
    result.reintegrations = system.reintegrationCount();
    if (const FaultInjector *injector = system.faultInjector()) {
        result.faults = injector->stats();
        result.faultReport = renderFaultReport(system);
    }

    // Metric snapshot: a pure function of this job's System/Engine
    // state, so it merges byte-identically at any worker count.
    MetricRegistry reg;
    exportEngineMetrics(reg, result.engine);
    exportSystemMetrics(reg, system);
    latency.exportTo(reg);
    result.metrics = reg.snapshot();
    return result;
}

CampaignResult
runSupervisedJob(const CampaignSpec &spec, const CampaignJob &job,
                 CampaignScratch &scratch, const SupervisorOptions &sup,
                 TraceSink *trace)
{
    const unsigned attempts = sup.retries + 1;
    CampaignResult last;
    for (unsigned a = 0; a < attempts; ++a) {
        // Attempt 0 reproduces the canonical job seed exactly, so a
        // job that succeeds first try is bit-identical to the
        // unsupervised run; retries draw fresh-but-deterministic
        // sub-streams.
        CampaignJob attempt = job;
        attempt.seed =
            Rng::deriveSeed(spec.campaignSeed, job.index, a);
        RunControl control;
        if (sup.timeoutMs > 0) {
            control.hasDeadline = true;
            control.deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(sup.timeoutMs);
        }
        try {
            CampaignResult r =
                runCampaignJob(spec, attempt, scratch,
                               sup.timeoutMs > 0 ? &control : nullptr,
                               trace);
            r.attempts = a + 1;
            if (!r.engine.cancelled) {
                r.status = JobStatus::Ok;
                return r;
            }
            // Timed out: keep the partial statistics - they are real
            // measurements up to the cancellation point - but the row
            // is not a completed, verified job.
            r.status = JobStatus::TimedOut;
            r.consistent = false;
            r.failureReason = strprintf(
                "attempt %u exceeded the %llu ms deadline", a + 1,
                static_cast<unsigned long long>(sup.timeoutMs));
            last = std::move(r);
        } catch (const std::exception &e) {
            last = CampaignResult{};
            last.job = attempt;
            last.attempts = a + 1;
            last.status = JobStatus::Failed;
            last.consistent = false;
            last.failureReason = e.what();
        } catch (...) {
            last = CampaignResult{};
            last.job = attempt;
            last.attempts = a + 1;
            last.status = JobStatus::Failed;
            last.consistent = false;
            last.failureReason = "non-standard exception";
        }
    }
    return last;
}

CampaignRunner::CampaignRunner(unsigned jobs)
    : jobs_(jobs == 0 ? 1 : jobs)
{
}

CampaignRunner::CampaignRunner(unsigned jobs, SupervisorOptions sup)
    : jobs_(jobs == 0 ? 1 : jobs), sup_(std::move(sup))
{
}

namespace {

/**
 * Campaign job lifecycle events, emitted after the merge in job-index
 * order from merged per-job state only (status, attempts, elapsed) -
 * the same inputs at any --jobs value, hence the same trace.  Each
 * job is one track (tid = job index) under the campaign pid.
 */
void
emitJobLifecycle(TraceSink *trace, const CampaignReport &report,
                 const std::vector<char> &resumed)
{
    if (!trace)
        return;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const CampaignResult &r = report.results[i];
        const char *claim = (i < resumed.size() && resumed[i])
                                ? "job-resume"
                                : "job-claim";
        trace->onJobEvent(claim, i, 0, 0, std::string());
        trace->onJobEvent("job-run", i, 0, r.engine.elapsed,
                          strprintf("status %s",
                                    jobStatusName(r.status)));
        if (r.attempts > 1)
            trace->onJobEvent("job-retry", i, 0, 0,
                              strprintf("attempts %u", r.attempts));
        if (r.status == JobStatus::TimedOut)
            trace->onJobEvent("job-timeout", i, r.engine.elapsed, 0,
                              r.failureReason);
    }
}

} // namespace

CampaignReport
CampaignRunner::run(const CampaignSpec &spec) const
{
    std::vector<CampaignJob> jobs = expandCampaign(spec);

    CampaignReport report;
    for (const ProtocolMix &mix : spec.mixes)
        report.mixNames.push_back(mix.name);
    if (spec.geometries.empty()) {
        report.geometryNames.push_back("default");
    } else {
        for (const GeometryPoint &g : spec.geometries)
            report.geometryNames.push_back(g.name);
    }
    if (spec.costs.empty()) {
        report.costNames.push_back("default");
    } else {
        for (const CostPoint &c : spec.costs)
            report.costNames.push_back(c.name);
    }
    for (const WorkloadSpec &w : spec.workloads)
        report.workloadNames.push_back(w.name);
    if (spec.faultFactory) {
        report.faultNames.push_back("factory");
    } else if (spec.faults.empty()) {
        report.faultNames.push_back("none");
    } else {
        for (const FaultPoint &f : spec.faults)
            report.faultNames.push_back(f.name);
    }

    report.results.resize(jobs.size());
    if (jobs.empty())
        return report;

    // Checkpointing: on resume, jobs already journaled merge verbatim
    // (bit-exact round trip) and only the remainder runs; either way
    // every freshly-completed job is appended fsync'd, so a kill -9
    // at any instant loses at most the jobs in flight.
    const std::uint64_t fingerprint = campaignFingerprint(spec);
    std::vector<char> have(jobs.size(), 0);
    if (sup_.resume && !sup_.journalPath.empty()) {
        for (CampaignResult &r :
             loadCampaignJournal(sup_.journalPath, fingerprint)) {
            if (r.job.index >= jobs.size())
                continue;
            have[r.job.index] = 1;
            report.results[r.job.index] = std::move(r);
        }
    }
    std::unique_ptr<CampaignJournal> journal;
    if (!sup_.journalPath.empty())
        journal = std::make_unique<CampaignJournal>(
            sup_.journalPath, fingerprint, jobs.size());

    std::vector<CampaignJob> pending;
    pending.reserve(jobs.size());
    for (const CampaignJob &job : jobs) {
        if (!have[job.index])
            pending.push_back(job);
    }
    if (pending.empty()) {
        emitJobLifecycle(trace_, report, have);
        return report;
    }

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, pending.size()));
    if (workers <= 1) {
        // Serial path: identical results by construction, no threads
        // (also the baseline `--jobs 1` must reproduce).
        CampaignScratch scratch;
        for (const CampaignJob &job : pending) {
            CampaignResult r = runSupervisedJob(
                spec, job, scratch, sup_,
                (trace_ && job.index == traceJob_) ? trace_ : nullptr);
            if (journal)
                journal->append(r);
            report.results[job.index] = std::move(r);
        }
        emitJobLifecycle(trace_, report, have);
        return report;
    }

    // Workers claim the next unclaimed job and push results through a
    // bounded queue; this (merging) thread slots them by job index and
    // owns the journal (single writer, no locking).  runSupervisedJob
    // never throws - a failing job becomes a Failed row - so every
    // pending job produces exactly one queue entry and the merge loop
    // cannot starve.
    std::atomic<std::size_t> next{0};
    BoundedQueue<CampaignResult> done(2 * workers);
    {
        ThreadPool pool(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.submit([this, &spec, &pending, &next, &done] {
                CampaignScratch scratch;
                for (;;) {
                    std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= pending.size())
                        return;
                    // The designated trace job is claimed by exactly
                    // one worker, so the sink sees a single writer.
                    TraceSink *trace =
                        (trace_ && pending[i].index == traceJob_)
                            ? trace_
                            : nullptr;
                    done.push(runSupervisedJob(spec, pending[i],
                                               scratch, sup_, trace));
                }
            });
        }
        for (std::size_t n = 0; n < pending.size(); ++n) {
            CampaignResult result = done.pop();
            if (journal)
                journal->append(result);
            std::size_t index = result.job.index;
            report.results[index] = std::move(result);
        }
        pool.wait();
    }
    emitJobLifecycle(trace_, report, have);
    return report;
}

} // namespace fbsim
