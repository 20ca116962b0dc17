#include "text/report.h"

#include <cstdio>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/latency.h"

namespace fbsim {

std::string
renderClientStats(System &system)
{
    std::string out;
    out += strprintf("%-4s %-26s %9s %9s %7s %7s %7s %7s %7s %7s\n",
                     "id", "protocol", "reads", "writes", "miss%",
                     "wrback", "inval", "update", "interv", "abortp");
    for (MasterId id = 0; id < system.numClients(); ++id) {
        BusClient &client = system.client(id);
        const SnoopingCache *cache = system.cacheOf(id);
        if (cache) {
            const CacheStats &s = cache->stats();
            out += strprintf(
                "%-4u %-26s %9llu %9llu %6.2f%% %7llu %7llu %7llu "
                "%7llu %7llu\n",
                id, client.protocolName(),
                static_cast<unsigned long long>(s.reads),
                static_cast<unsigned long long>(s.writes),
                100.0 * s.missRatio(),
                static_cast<unsigned long long>(s.writebacks),
                static_cast<unsigned long long>(s.invalidationsRecv),
                static_cast<unsigned long long>(s.updatesRecv),
                static_cast<unsigned long long>(s.interventions),
                static_cast<unsigned long long>(s.abortPushes));
        } else {
            out += strprintf("%-4u %-26s %9s %9s\n", id,
                             client.protocolName(), "-", "-");
        }
    }
    return out;
}

std::string
renderBusStats(const BusStats &s)
{
    std::string out;
    out += strprintf("bus: %llu transactions (%llu reads, %llu RFO, "
                     "%llu word writes, %llu broadcast, %llu pushes, "
                     "%llu invalidates)\n",
                     static_cast<unsigned long long>(s.transactions),
                     static_cast<unsigned long long>(s.reads),
                     static_cast<unsigned long long>(s.readsForModify),
                     static_cast<unsigned long long>(s.wordWrites),
                     static_cast<unsigned long long>(s.broadcastWrites),
                     static_cast<unsigned long long>(s.linePushes),
                     static_cast<unsigned long long>(s.invalidates));
    out += strprintf("     %llu interventions, %llu write captures, "
                     "%llu aborts, %llu data words, %llu busy cycles\n",
                     static_cast<unsigned long long>(s.interventions),
                     static_cast<unsigned long long>(s.writeCaptures),
                     static_cast<unsigned long long>(s.aborts),
                     static_cast<unsigned long long>(s.dataWords),
                     static_cast<unsigned long long>(s.busyCycles));
    if (s.spuriousAborts || s.droppedResponses || s.retryExhausted ||
        s.backoffCycles || s.responseConflicts) {
        out += strprintf(
            "     faults: %llu spurious aborts, %llu dropped "
            "responses, %llu retry exhaustions, %llu backoff cycles, "
            "%llu response conflicts\n",
            static_cast<unsigned long long>(s.spuriousAborts),
            static_cast<unsigned long long>(s.droppedResponses),
            static_cast<unsigned long long>(s.retryExhausted),
            static_cast<unsigned long long>(s.backoffCycles),
            static_cast<unsigned long long>(s.responseConflicts));
    }
    return out;
}

std::string
renderEngineResult(const EngineResult &r)
{
    std::string out;
    out += strprintf("elapsed %llu cycles, bus busy %llu (%.1f%%), "
                     "system power %.2f\n",
                     static_cast<unsigned long long>(r.elapsed),
                     static_cast<unsigned long long>(r.busBusy),
                     100.0 * r.busUtilization(), r.systemPower());
    for (std::size_t i = 0; i < r.procs.size(); ++i) {
        const ProcTiming &p = r.procs[i];
        out += strprintf("  proc %zu: %llu refs, utilization %.3f, "
                         "bus wait %llu, bus service %llu\n",
                         i, static_cast<unsigned long long>(p.refs),
                         p.utilization(),
                         static_cast<unsigned long long>(p.busWaitCycles),
                         static_cast<unsigned long long>(
                             p.busServiceCycles));
    }
    out += strprintf("fairness: bus service %.3f, bus wait %.3f\n",
                     r.busServiceFairness(), r.busWaitFairness());
    return out;
}

std::string
renderFaultReport(const System &system)
{
    const FaultInjector *fi = system.faultInjector();
    if (!fi)
        return {};
    const FaultStats &s = fi->stats();
    std::string out;
    out += strprintf("fault campaign %s\n", fi->describe().c_str());
    out += strprintf("  injected: %llu spurious aborts (%llu storm), "
                     "%llu delays, %llu drops, %llu data flips, "
                     "%llu response flips, %llu mutes\n",
                     static_cast<unsigned long long>(s.spuriousAborts),
                     static_cast<unsigned long long>(s.stormAborts),
                     static_cast<unsigned long long>(s.memoryDelays),
                     static_cast<unsigned long long>(s.memoryDrops),
                     static_cast<unsigned long long>(s.dataFlips),
                     static_cast<unsigned long long>(s.responseFlips),
                     static_cast<unsigned long long>(s.snooperMutes));
    out += strprintf(
        "  recovery: %llu retry exhaustions, %llu response conflicts, "
        "%llu watchdog trips, %llu quarantines, %llu reintegrations, "
        "%llu violations recorded\n",
        static_cast<unsigned long long>(
            system.bus().stats().retryExhausted),
        static_cast<unsigned long long>(
            system.bus().stats().responseConflicts),
        static_cast<unsigned long long>(system.watchdogTrips()),
        static_cast<unsigned long long>(system.quarantineCount()),
        static_cast<unsigned long long>(system.reintegrationCount()),
        static_cast<unsigned long long>(system.violations().size()));
    for (const std::string &ev : system.faultEvents())
        out += "  event: " + ev + "\n";
    return out;
}

std::string
renderFaultReport(HierSystem &system)
{
    const FaultInjector *fi = system.faults();
    if (!fi)
        return {};
    const FaultStats &s = fi->stats();
    std::string out;
    out += strprintf("fault campaign %s (%zu clusters)\n",
                     fi->describe().c_str(), system.numClusters());
    BridgeStats bridges;
    for (std::size_t k = 0; k < system.numClusters(); ++k) {
        const BridgeStats &b = system.bridge(k).stats();
        bridges.forwardRetries += b.forwardRetries;
        bridges.forwardExhausted += b.forwardExhausted;
        bridges.dupForwards += b.dupForwards;
        bridges.delayedForwards += b.delayedForwards;
        bridges.stallDrops += b.stallDrops;
        bridges.downAborts += b.downAborts;
        bridges.staleFilterSkips += b.staleFilterSkips;
        bridges.watchdogTrips += b.watchdogTrips;
        bridges.scrubbedEntries += b.scrubbedEntries;
        bridges.salvagedLines += b.salvagedLines;
        bridges.salvageServes += b.salvageServes;
    }
    out += strprintf("  injected: %llu spurious aborts (%llu storm), "
                     "%llu delays, %llu drops, %llu dup forwards, "
                     "%llu delayed forwards, %llu stall drops, "
                     "%llu stale filter skips\n",
                     static_cast<unsigned long long>(s.spuriousAborts),
                     static_cast<unsigned long long>(s.stormAborts),
                     static_cast<unsigned long long>(s.memoryDelays),
                     static_cast<unsigned long long>(s.memoryDrops),
                     static_cast<unsigned long long>(
                         bridges.dupForwards),
                     static_cast<unsigned long long>(
                         bridges.delayedForwards),
                     static_cast<unsigned long long>(
                         bridges.stallDrops),
                     static_cast<unsigned long long>(
                         bridges.staleFilterSkips));
    out += strprintf(
        "  recovery: %llu forward retries, %llu forward exhaustions, "
        "%llu down aborts, %llu bridge watchdog trips, "
        "%llu scrubbed filter entries, %llu salvage serves\n",
        static_cast<unsigned long long>(bridges.forwardRetries),
        static_cast<unsigned long long>(bridges.forwardExhausted),
        static_cast<unsigned long long>(bridges.downAborts),
        static_cast<unsigned long long>(bridges.watchdogTrips),
        static_cast<unsigned long long>(bridges.scrubbedEntries),
        static_cast<unsigned long long>(bridges.salvageServes));
    out += strprintf(
        "  ladder: %llu watchdog trips, %llu quarantines, "
        "%llu reintegrations, %llu scrub divergence, "
        "%llu violations recorded\n",
        static_cast<unsigned long long>(system.watchdogTrips()),
        static_cast<unsigned long long>(system.quarantineCount()),
        static_cast<unsigned long long>(system.reintegrationCount()),
        static_cast<unsigned long long>(system.scrubDivergence()),
        static_cast<unsigned long long>(system.violations().size()));
    for (const std::string &ev : system.faultEvents())
        out += "  event: " + ev + "\n";
    return out;
}

std::string
renderCampaignTable(const CampaignReport &report)
{
    std::string out;
    out += strprintf("campaign: %zu jobs (%zu mixes x %zu geometries "
                     "x %zu costs x %zu workloads x %zu faults)\n",
                     report.results.size(), report.mixNames.size(),
                     report.geometryNames.size(),
                     report.costNames.size(),
                     report.workloadNames.size(),
                     report.faultNames.size());

    const bool geom = report.geometryNames.size() > 1;
    const bool cost = report.costNames.size() > 1;
    const bool work = report.workloadNames.size() > 1;
    const bool fault = report.faultNames.size() > 1;
    // Supervision columns appear only when supervision left a mark,
    // so an unsupervised campaign renders exactly as before.
    bool supervised = false;
    for (const CampaignResult &r : report.results) {
        if (r.status != JobStatus::Ok || r.attempts != 1) {
            supervised = true;
            break;
        }
    }

    out += strprintf("%-5s %-24s", "job", "mix");
    if (geom)
        out += strprintf(" %-12s", "geometry");
    if (cost)
        out += strprintf(" %-12s", "cost");
    if (work)
        out += strprintf(" %-18s", "workload");
    if (fault)
        out += strprintf(" %-12s", "fault");
    out += strprintf(" %7s %7s %7s %8s %6s %6s", "util", "busutil",
                     "miss%", "cyc/ref", "fair", "viol");
    if (supervised)
        out += strprintf(" %-7s %3s", "status", "att");
    out += strprintf(" %s\n", "ok");

    std::size_t inconsistent = 0;
    std::uint64_t injected = 0;
    std::string failures;
    for (const CampaignResult &r : report.results) {
        out += strprintf("%-5zu %-24s", r.job.index,
                         report.mixNames[r.job.mixIdx].c_str());
        if (geom) {
            out += strprintf(
                " %-12s",
                report.geometryNames[r.job.geometryIdx].c_str());
        }
        if (cost) {
            out += strprintf(
                " %-12s", report.costNames[r.job.costIdx].c_str());
        }
        if (work) {
            out += strprintf(
                " %-18s",
                report.workloadNames[r.job.workloadIdx].c_str());
        }
        if (fault) {
            out += strprintf(
                " %-12s", report.faultNames[r.job.faultIdx].c_str());
        }
        out += strprintf(" %7.3f %7.3f %6.2f%% %8.3f %6.3f %6zu",
                         r.procUtilization(), r.busUtilization(),
                         100.0 * r.missRatio(), r.busCyclesPerRef(),
                         r.engine.busServiceFairness(),
                         r.violations.size());
        if (supervised) {
            out += strprintf(" %-7s %3u", jobStatusName(r.status),
                             r.attempts);
        }
        out += strprintf(" %s\n", r.consistent ? "yes" : "NO");
        if (!r.consistent)
            ++inconsistent;
        if (!r.failureReason.empty()) {
            failures += strprintf("failure: job %zu (%s after %u "
                                  "attempts): %s\n",
                                  r.job.index, jobStatusName(r.status),
                                  r.attempts, r.failureReason.c_str());
        }
        injected += r.faults.injected();
    }

    out += failures;
    if (injected) {
        out += strprintf("faults: %llu injected across the campaign\n",
                         static_cast<unsigned long long>(injected));
    }
    out += strprintf("consistency: %zu/%zu jobs violation-free\n",
                     report.results.size() - inconsistent,
                     report.results.size());

    // Per-master latency over the merged snapshots: snapshot merges
    // are associative/commutative, so this block inherits the table's
    // any---jobs determinism.
    MetricsSnapshot merged;
    for (const CampaignResult &r : report.results)
        merged = mergeSnapshots(merged, r.metrics);
    out += renderLatencyBlock(merged);
    return out;
}

std::string
renderLatencyBlock(const MetricsSnapshot &metrics)
{
    std::string out;
    std::vector<double> service;
    for (std::uint32_t m = 0;; ++m) {
        const MetricEntry *wait =
            metrics.find(strprintf("bus.m%u.wait", m));
        const MetricEntry *serv =
            metrics.find(strprintf("bus.m%u.service", m));
        if (!wait || !serv)
            break;
        if (out.empty())
            out += "per-master bus latency:\n";
        const MetricEntry *txns =
            metrics.find(strprintf("bus.m%u.txns", m));
        const MetricEntry *retries =
            metrics.find(strprintf("bus.m%u.retries", m));
        out += strprintf(
            "  m%-3u wait p50/p90/p99 %llu/%llu/%llu  service "
            "p50/p90/p99 %llu/%llu/%llu  txns %llu retries %llu\n",
            m,
            static_cast<unsigned long long>(wait->hist.percentile(50)),
            static_cast<unsigned long long>(wait->hist.percentile(90)),
            static_cast<unsigned long long>(wait->hist.percentile(99)),
            static_cast<unsigned long long>(serv->hist.percentile(50)),
            static_cast<unsigned long long>(serv->hist.percentile(90)),
            static_cast<unsigned long long>(serv->hist.percentile(99)),
            static_cast<unsigned long long>(txns ? txns->value : 0),
            static_cast<unsigned long long>(retries ? retries->value
                                                    : 0));
        service.push_back(static_cast<double>(serv->hist.sum));
    }
    if (!out.empty()) {
        out += strprintf("  fairness (Jain, service cycles): %.3f\n",
                         jainFairnessIndex(service));
    }
    return out;
}

std::string
renderCampaignMetricsJson(const CampaignReport &report)
{
    MetricsSnapshot merged;
    for (const CampaignResult &r : report.results)
        merged = mergeSnapshots(merged, r.metrics);

    MetricRegistry process;
    exportProcessMetrics(process);

    std::string out = "{\n\"campaign\": ";
    out += renderMetricsJson(merged);
    out += ",\n\"jobs\": [";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        out += (i == 0) ? "\n" : ",\n";
        out += renderMetricsJson(report.results[i].metrics);
    }
    out += "\n],\n\"process\": ";
    out += renderMetricsJson(process.snapshot());
    out += "\n}\n";
    return out;
}

void
writeCampaignMetricsJson(const CampaignReport &report,
                         const std::string &path)
{
    std::string json = renderCampaignMetricsJson(report);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fbsim_fatal("metrics: cannot open %s for writing",
                    path.c_str());
    if (std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
        std::fclose(f);
        fbsim_fatal("metrics: short write to %s", path.c_str());
    }
    if (std::fclose(f) != 0)
        fbsim_fatal("metrics: close of %s failed", path.c_str());
}

} // namespace fbsim
