#include "passes.h"

#include <algorithm>
#include <optional>

#include "campaign/campaign_runner.h"
#include "common/logging.h"
#include "hier/hier_engine.h"
#include "hier/hier_system.h"
#include "obs/latency.h"
#include "obs/perfetto_sink.h"
#include "sim/engine.h"
#include "sim/system.h"
#include "text/report.h"
#include "trace/ref_stream.h"
#include "trace/trace_io.h"

namespace perfbench {

using namespace fbsim;

namespace {

/** FNV-1a, 64 bit. */
std::uint64_t
fnv(std::uint64_t h, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t
metricValue(const MetricsSnapshot &m, const std::string &name)
{
    const MetricEntry *e = m.find(name);
    return e ? e->value : 0;
}

std::string
jobLabel(const CampaignReport &report, const CampaignJob &job)
{
    std::string label = report.mixNames[job.mixIdx];
    if (report.geometryNames.size() > 1)
        label += " " + report.geometryNames[job.geometryIdx];
    if (report.costNames.size() > 1)
        label += " " + report.costNames[job.costIdx];
    if (report.workloadNames.size() > 1)
        label += " " + report.workloadNames[job.workloadIdx];
    return label;
}

/** Why a job counts as a failed operation ("" when it does not). */
std::string
jobFailure(const CampaignResult &r)
{
    if (r.status != JobStatus::Ok)
        return std::string(jobStatusName(r.status)) + ": " +
               r.failureReason;
    if (r.engine.cancelled)
        return "cancelled";
    if (!r.consistent)
        return r.violations.empty() ? "inconsistent"
                                    : r.violations.front();
    return "";
}

/** CampaignRunner::run, with each job's host time (in job order)
 *  from the campaign's JobClock. */
CampaignReport
runTimed(const Campaign &c, SpanLog &log, std::size_t parent,
         PerfettoTraceSink *sink, std::vector<double> &job_ms,
         double &busy)
{
    CampaignRunner runner(c.workers);
    if (sink)
        runner.attachTrace(sink, 0);
    std::vector<std::uint64_t> seeds;
    for (const CampaignJob &job : expandCampaign(c.spec))
        seeds.push_back(job.seed);
    c.clock->reset(std::move(seeds));
    CampaignReport report = runner.run(c.spec);

    for (const JobClock::Interval &job : c.clock->intervals(Clock::now())) {
        log.add("campaign.job", parent,
                static_cast<std::uint32_t>(1 + job.worker), job.start,
                job.end);
        const double secs = secondsBetween(job.start, job.end);
        job_ms.push_back(1e3 * secs);
        busy += secs;
    }
    return report;
}

} // namespace

void
Counters::add(const CampaignResult &r)
{
    ++jobs;
    refs += r.totalRefs();
    specBatches += r.speculation.batches;
    specRefs += r.speculation.specRefs;
    rollbacks += r.speculation.rollbacks;
    rolledBackRefs += r.speculation.rolledBackRefs;
    for (const ProcTiming &p : r.engine.procs)
        busWaitCycles += p.busWaitCycles;

    transactions += r.bus.transactions;
    aborts += r.bus.aborts;
    linePushes += r.bus.linePushes;
    interventions += r.bus.interventions;
    broadcastWrites += r.bus.broadcastWrites;
    snoopsInvoked += metricValue(r.metrics, "snoop.invoked");
    snoopsSuppressed += metricValue(r.metrics, "snoop.suppressed");

    const CacheStats &c = r.cacheTotals;
    accesses += c.reads + c.writes;
    hits += c.readHits + c.writeHits;
    misses += c.readMisses + c.writeMisses;
    evictions += c.evictions;
    invalidationsRecv += c.invalidationsRecv;
    updatesRecv += c.updatesRecv;
    abortPushes += c.abortPushes;

    violations += r.violations.size();

    faultsInjected += r.faults.injected();
    retryExhausted += r.bus.retryExhausted;
    watchdogTrips += r.watchdogTrips;
    quarantines += r.quarantines;
    reintegrations += r.reintegrations;

    const std::string salvage = "bridge.salvageServes";
    for (const MetricEntry &e : r.metrics.entries) {
        if (e.name.size() >= salvage.size() &&
            e.name.compare(e.name.size() - salvage.size(),
                           salvage.size(), salvage) == 0)
            salvageServes += e.value;
    }
    scrubDivergence += r.scrubDivergence;
}

namespace {

std::uint64_t
digestRendered(std::string_view table, std::string_view metrics_json)
{
    // "process" carries process-wide warning counters, which depend on
    // what ran before; everything ahead of it is per-job state.
    std::size_t cut = metrics_json.find("\"process\":");
    return fnv(fnv(kFnvBasis, table), metrics_json.substr(0, cut));
}

} // namespace

std::uint64_t
digestReport(const CampaignReport &report)
{
    return digestRendered(renderCampaignTable(report),
                          renderCampaignMetricsJson(report));
}

std::uint64_t
digestOrderingFree(CampaignReport report)
{
    for (CampaignResult &r : report.results)
        r.speculation = SpecStats{};
    return digestReport(report);
}

std::uint64_t
digestOf(const std::vector<std::uint64_t> &digests)
{
    const std::string_view bytes(
        reinterpret_cast<const char *>(digests.data()),
        digests.size() * sizeof(std::uint64_t));
    return fnv(kFnvBasis, bytes);
}

std::uint64_t
digestExploration(const mc::ExploreResult &r)
{
    const std::string s = strprintf(
        "%zu %zu %zu %016llx %016llx %d %d", r.nodes, r.edges, r.depth,
        static_cast<unsigned long long>(r.nodeFingerprint),
        static_cast<unsigned long long>(r.edgeFingerprint),
        r.complete ? 1 : 0, r.counterexample ? 1 : 0);
    return fnv(kFnvBasis, s);
}

PassResult
runCampaigns(std::vector<Campaign> &campaigns, SpanLog &log,
             std::size_t parent,
             const std::vector<std::uint64_t> *reference,
             std::vector<CampaignReport> *reports)
{
    PassResult out;
    if (reports)
        reports->clear();
    const Clock::time_point start = Clock::now();
    for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
        const Campaign &c = campaigns[ci];
        Span span(log, "campaign.run", parent);
        PerfettoTraceSink sink;
        PerfettoTraceSink *sinkp = c.perfetto ? &sink : nullptr;
        std::vector<double> job_ms;
        CampaignReport report =
            runTimed(c, log, span.id(), sinkp, job_ms, out.busySeconds);
        const double run_s = span.close();
        out.heldSeconds += run_s * c.workers;

        // What a user of the campaign reads: the table, the metrics
        // JSON and the designated job's Perfetto trace (rendered for
        // its cost; the digest covers the first two).
        std::string table, metrics_json, trace_json;
        {
            Span render(log, "text.render", parent);
            table = renderCampaignTable(report);
        }
        {
            Span exported(log, "obs.export", parent);
            metrics_json = renderCampaignMetricsJson(report);
            if (sinkp)
                trace_json = sink.render();
        }
        out.counters.traceEvents += sink.eventCount();

        const std::uint64_t digest = digestRendered(table, metrics_json);
        out.digests.push_back(digest);
        const bool mismatch =
            reference && (*reference)[ci] != digest;

        for (std::size_t j = 0; j < report.results.size(); ++j) {
            const CampaignResult &r = report.results[j];
            out.counters.add(r);
            out.events += r.totalRefs();
            JobRow row;
            row.campaign = c.name;
            row.label = jobLabel(report, r.job);
            row.ms = j < job_ms.size() ? job_ms[j] : 0;
            row.refs = r.totalRefs();
            row.specRefs = r.speculation.specRefs;
            row.rollbacks = r.speculation.rollbacks;
            row.rolledBackRefs = r.speculation.rolledBackRefs;
            row.note = jobFailure(r);
            if (row.note.empty() && mismatch)
                row.note = "digest differs from the reference pass";
            row.ok = row.note.empty();
            ++out.attempted;
            out.failed += row.ok ? 0 : 1;
            out.rows.push_back(std::move(row));
        }
        out.jobMs.insert(out.jobMs.end(), job_ms.begin(), job_ms.end());
        if (reports)
            reports->push_back(std::move(report));
    }
    out.seconds = secondsBetween(start, Clock::now());
    return out;
}

PassResult
runExplorations(const std::vector<Exploration> &explorations,
                SpanLog &log, std::size_t parent,
                const std::vector<std::uint64_t> *reference,
                mc::ExploreResult *first_result)
{
    PassResult out;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < explorations.size(); ++i) {
        const Exploration &e = explorations[i];
        Span span(log, "mc.explore", parent);
        mc::ExploreResult r = mc::explore(e.config);
        const double s = span.close();
        out.jobMs.push_back(1e3 * s);
        out.busySeconds += s;
        out.heldSeconds += s;

        const std::uint64_t digest = digestExploration(r);
        out.digests.push_back(digest);
        out.events += r.edges;
        ++out.counters.jobs;
        out.counters.states += r.nodes;
        out.counters.transitions += r.edges;

        JobRow row;
        row.campaign = "mc";
        row.label = e.name;
        row.ms = 1e3 * s;
        if (r.counterexample)
            row.note = "counterexample";
        else if (!r.complete)
            row.note = "node cap reached";
        else if (reference && (*reference)[i] != digest)
            row.note = "fingerprint differs from the reference pass";
        row.ok = row.note.empty();
        ++out.attempted;
        out.failed += row.ok ? 0 : 1;
        out.rows.push_back(std::move(row));
        if (i == 0 && first_result)
            *first_result = std::move(r);
    }
    out.seconds = secondsBetween(start, Clock::now());
    return out;
}

void
decomposeJobs(std::vector<Campaign> &campaigns, SpanLog &log,
              std::size_t parent)
{
    for (Campaign &c : campaigns) {
        const CampaignSpec &spec = c.spec;
        c.clock->reset({});
        for (const CampaignJob &job : expandCampaign(spec)) {
            const ProtocolMix &mix = spec.mixes[job.mixIdx];
            const std::size_t procs = mix.slots.size();
            const GeometryPoint *geometry =
                spec.geometries.empty() ? nullptr
                                        : &spec.geometries[job.geometryIdx];
            const bool fault_axis =
                static_cast<bool>(spec.faultFactory) ||
                !spec.faults.empty();
            std::optional<FaultConfig> faults;
            if (spec.faultFactory)
                faults = spec.faultFactory(job.seed, job.index);
            else if (!spec.faults.empty())
                faults = spec.faults[job.faultIdx].faults;

            const WorkloadSpec &workload = spec.workloads[job.workloadIdx];
            std::vector<std::vector<ProcRef>> shards;
            std::vector<std::unique_ptr<RefStream>> streams;
            std::vector<RefStream *> raw;
            if (workload.trace)
                shards = splitTraceByProc(*workload.trace, procs);
            for (std::size_t p = 0; p < procs; ++p) {
                if (workload.trace)
                    streams.push_back(std::make_unique<SpanStream>(
                        std::span<const ProcRef>(shards[p])));
                else
                    streams.push_back(workload.make(p, procs, job.seed));
                raw.push_back(streams.back().get());
            }
            const std::uint64_t refs = workload.refsPerProc
                                           ? workload.refsPerProc
                                           : spec.refsPerProc;
            SpecStats spec_stats;
            EngineConfig ecfg = spec.engine;
            ecfg.specStats = &spec_stats;
            CacheSpec cache;
            auto cacheOf = [&](const MixSlot &slot) {
                cache = slot.cache;
                if (geometry && geometry->numSets)
                    cache.numSets = geometry->numSets;
                if (geometry && geometry->assoc)
                    cache.assoc = geometry->assoc;
                return cache;
            };

            if (spec.clusters > 1) {
                HierConfig hc = spec.hier;
                hc.lineBytes = spec.base.lineBytes;
                if (geometry && geometry->lineBytes)
                    hc.lineBytes = geometry->lineBytes;
                if (!spec.costs.empty()) {
                    hc.rootCost = spec.costs[job.costIdx].cost;
                    hc.leafCost = hc.rootCost;
                }
                if (fault_axis)
                    hc.faults = faults;
                Span build(log, "sim.build", parent);
                HierSystem system(hc, spec.clusters);
                std::size_t slot_idx = 0;
                for (const MixSlot &slot : mix.slots) {
                    const std::size_t cluster = slot_idx++ % spec.clusters;
                    if (slot.nonCaching)
                        system.addNonCachingMaster(cluster,
                                                   slot.broadcastWrites);
                    else
                        system.addCache(cluster, cacheOf(slot));
                }
                build.close();
                {
                    Span run(log, "hier.run", parent);
                    HierEngine(system, ecfg).run(raw, refs);
                }
                Span verify(log, "checker.verify", parent);
                if (spec.terminalCheck)
                    system.checkNow();
                continue;
            }

            SystemConfig config = spec.base;
            if (geometry && geometry->lineBytes)
                config.lineBytes = geometry->lineBytes;
            if (!spec.costs.empty())
                config.cost = spec.costs[job.costIdx].cost;
            if (fault_axis)
                config.faults = faults;
            LatencyRecorder latency(procs);
            Span build(log, "sim.build", parent);
            System system(config);
            system.bus().setLatencyRecorder(&latency);
            for (const MixSlot &slot : mix.slots) {
                if (slot.nonCaching)
                    system.addNonCachingMaster(slot.broadcastWrites);
                else
                    system.addCache(cacheOf(slot));
            }
            build.close();
            ecfg.latency = &latency;
            {
                Span run(log, "sim.run", parent);
                Engine(system, ecfg).run(raw, refs);
            }
            Span verify(log, "checker.verify", parent);
            if (spec.terminalCheck)
                system.checkNow();
        }
    }
}

double
timeDesignatedJob(const Campaign &campaign, bool attached, SpanLog &log,
                  std::size_t parent)
{
    std::vector<CampaignJob> jobs = expandCampaign(campaign.spec);
    campaign.clock->reset({});
    CampaignScratch scratch;
    PerfettoTraceSink sink;
    Span span(log, attached ? "obs.job_sink_attached"
                            : "obs.job_sink_detached",
              parent);
    runCampaignJob(campaign.spec, jobs.front(), scratch, nullptr,
                   attached ? &sink : nullptr);
    return span.close();
}

} // namespace perfbench
