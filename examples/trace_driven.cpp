/**
 * @file
 * Trace-driven simulation: run a memory reference trace (fbsim text
 * format: "<proc> <R|W> <hexaddr>") through a timed multiprocessor
 * and report utilization and coherence statistics.
 *
 * Usage:
 *   trace_driven <trace-file> [protocol|all] [procs] [--jobs N]
 *                [--trace-out out.json [--trace-job N]]
 *                [--metrics-out out.json] [--warn-limit N] [--faults]
 *                [--clusters N] [--shrink]
 *   trace_driven --generate <trace-file> [procs] [refs]
 *
 * --trace-out writes a Chrome/Perfetto trace_event JSON of the
 * designated job (bus transactions, per-reference spans, fault-ladder
 * instants) plus the campaign job lifecycle; load it at
 * https://ui.perfetto.dev.  --metrics-out writes the campaign metric
 * snapshots (merged + per-job) as JSON.  --faults arms a
 * deterministic timing-fault campaign (spurious aborts, memory
 * delays/drops - consistency-preserving by construction) with the
 * quarantine/reintegration ladder enabled, so the exported trace
 * demonstrates the full event vocabulary.
 *
 * --clusters N replays the trace over an N-leaf multi-bus hierarchy
 * (caches round-robined across clusters behind BusBridges) instead of
 * one flat bus; MOESI-class protocols only, and with --faults the
 * bridge fault sites (dropped/delayed/duplicated forwards, stale
 * filter bits, leaf stalls) and the segment quarantine ladder are
 * armed too.  --shrink greedily minimizes the fault schedule of the
 * first failing job (site elimination, window bisection, script
 * thinning) and prints the minimal "[fault-min ...]" replay tag; a
 * fully consistent campaign has nothing to shrink.
 *
 * The replay runs as a campaign job, so `all` sweeps every protocol
 * over the same trace in one CampaignRunner invocation and `--jobs N`
 * spreads the sweep over N worker threads (the merged table is
 * bit-identical for every N).
 *
 * The --generate mode writes a synthetic Archibald-Baer style trace so
 * the example is runnable with no external data (the paper itself had
 * no multiprocessor traces either; see section 5.2).
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "campaign/campaign_runner.h"
#include "fault/shrinker.h"
#include "obs/perfetto_sink.h"
#include "sim/engine.h"
#include "sim/system.h"
#include "text/report.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

using namespace fbsim;

namespace {

int
generate(const char *path, std::size_t procs, std::size_t refs)
{
    Arch85Params params;
    params.pShared = 0.15;
    std::vector<TraceRef> trace;
    std::vector<std::unique_ptr<RefStream>> streams =
        makeArch85Streams(params, procs, 7);
    for (std::size_t i = 0; i < refs; ++i) {
        MasterId proc = static_cast<MasterId>(i % procs);
        ProcRef r = streams[proc]->next();
        trace.push_back({proc, r.write, r.addr});
    }
    writeTraceFile(path, trace);
    std::printf("wrote %zu references for %zu processors to %s\n",
                trace.size(), procs, path);
    return 0;
}

/** One 128x4 mix of `procs` caches running `kind`. */
ProtocolMix
traceMix(ProtocolKind kind, std::size_t procs)
{
    CacheSpec spec;
    spec.protocol = kind;
    spec.numSets = 128;
    spec.assoc = 4;
    ProtocolMix mix = homogeneousMix(
        std::string(protocolKindName(kind)), spec, procs);
    return mix;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 3 && std::strcmp(argv[1], "--generate") == 0) {
        std::size_t procs = argc > 3 ? std::atoi(argv[3]) : 4;
        std::size_t refs = argc > 4 ? std::atoi(argv[4]) : 100000;
        return generate(argv[2], procs, refs);
    }

    // Pull the option flags out of argv before positional parsing.
    // The supervision flags default to off, so plain invocations run
    // (and print) exactly as before.
    unsigned jobs = 1;
    SupervisorOptions sup;
    const char *trace_out = nullptr;
    const char *metrics_out = nullptr;
    std::size_t trace_job = 0;
    bool with_faults = false;
    bool shrink = false;
    std::size_t clusters = 1;
    std::vector<char *> args;
    auto flagValue = [&](int &i, const char *name,
                         const char **value) {
        std::size_t len = std::strlen(name);
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=') {
            *value = argv[i] + len + 1;
            return true;
        }
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
            *value = argv[++i];
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const char *value = nullptr;
        if (flagValue(i, "--jobs", &value)) {
            jobs = static_cast<unsigned>(std::atoi(value));
        } else if (flagValue(i, "--timeout-ms", &value)) {
            sup.timeoutMs =
                static_cast<std::uint64_t>(std::atoll(value));
        } else if (flagValue(i, "--retries", &value)) {
            sup.retries = static_cast<unsigned>(std::atoi(value));
        } else if (flagValue(i, "--journal", &value)) {
            sup.journalPath = value;
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            sup.resume = true;
        } else if (flagValue(i, "--trace-out", &value)) {
            trace_out = value;
        } else if (flagValue(i, "--metrics-out", &value)) {
            metrics_out = value;
        } else if (flagValue(i, "--trace-job", &value)) {
            trace_job = static_cast<std::size_t>(std::atoll(value));
        } else if (flagValue(i, "--warn-limit", &value)) {
            setWarnSiteLimit(static_cast<unsigned>(std::atoi(value)));
        } else if (std::strcmp(argv[i], "--faults") == 0) {
            with_faults = true;
        } else if (std::strcmp(argv[i], "--shrink") == 0) {
            shrink = true;
        } else if (flagValue(i, "--clusters", &value)) {
            clusters = static_cast<std::size_t>(std::atoi(value));
            if (clusters == 0)
                clusters = 1;
        } else {
            args.push_back(argv[i]);
        }
    }
    if (sup.resume && sup.journalPath.empty()) {
        std::fprintf(stderr, "--resume needs --journal <path>\n");
        return 1;
    }

    if (args.empty()) {
        std::fprintf(stderr,
                     "usage: %s <trace-file> [protocol|all] [procs] "
                     "[--jobs N] "
                     "[--timeout-ms N] [--retries N] "
                     "[--journal path [--resume]] "
                     "[--trace-out path [--trace-job N]] "
                     "[--metrics-out path] [--warn-limit N] "
                     "[--faults] [--clusters N] [--shrink]\n"
                     "       %s --generate <trace-file> [procs] "
                     "[refs]\n",
                     argv[0], argv[0]);
        return 1;
    }

    bool sweep_all = false;
    ProtocolKind kind = ProtocolKind::Moesi;
    if (args.size() > 1) {
        if (std::strcmp(args[1], "all") == 0) {
            sweep_all = true;
        } else {
            auto parsed = protocolKindFromName(args[1]);
            if (!parsed) {
                std::fprintf(stderr, "unknown protocol %s\n", args[1]);
                return 1;
            }
            kind = *parsed;
        }
    }

    auto trace = std::make_shared<std::vector<TraceRef>>(
        readTraceFile(args[0]));
    MasterId max_proc = 0;
    for (const TraceRef &r : *trace)
        max_proc = std::max(max_proc, r.proc);
    std::size_t procs =
        args.size() > 2 ? static_cast<std::size_t>(std::atoi(args[2]))
                        : max_proc + 1;

    // Each processor replays its own sub-trace; run every stream for
    // the shortest shard so no processor wraps around.
    std::vector<std::uint64_t> per_proc(procs, 0);
    for (const TraceRef &r : *trace) {
        if (r.proc < procs)
            ++per_proc[r.proc];
    }
    std::uint64_t shortest = ~std::uint64_t{0};
    for (std::uint64_t n : per_proc)
        shortest = std::min(shortest, n ? n : 1);

    std::printf("%zu references, %zu processors, protocol %s, "
                "--jobs %u\n",
                trace->size(), procs,
                sweep_all ? "all"
                          : std::string(protocolKindName(kind)).c_str(),
                jobs);

    CampaignSpec spec;
    spec.refsPerProc = shortest;
    if (with_faults) {
        // Timing faults only (no data corruption), so every job stays
        // consistent while the retry/watchdog/quarantine/reintegration
        // ladder gets exercised and traced.  The drop schedule is a
        // guaranteed outage over a transaction window: every
        // memory-sourced read in it exhausts its retries, which walks
        // masters up the full ladder (trip -> quarantine) while dirty
        // drain pushes stay unaffected (drops only lose read
        // responses), so the shared image never diverges; the
        // post-window recovery cycles then trigger reintegration.
        FaultConfig faults;
        faults.seed = 0xfb51;
        faults.spuriousAbort.probability = 0.05;
        faults.abortStormProb = 0.25;
        faults.abortStormLength = 24;
        faults.memoryDelay.probability = 0.02;
        faults.memoryDrop.probability = 1.0;
        faults.memoryDrop.windowStart = 300;
        faults.memoryDrop.windowEnd = 500;
        if (clusters > 1) {
            // Arm the bridge fabric too: dropped/delayed/duplicated
            // cross-bus forwards, stale filter bits and a leaf-stall
            // window, all timing-only, so the hier recovery ladder
            // (forward retries, bridge watchdog, segment quarantine,
            // filter scrub) carries the campaign to a consistent end.
            faults.bridgeDrop.probability = 0.02;
            faults.bridgeDelay.probability = 0.02;
            faults.bridgeDup.probability = 0.01;
            faults.filterStale.probability = 0.02;
            faults.leafStall.probability = 1.0;
            faults.leafStall.windowStart = 600;
            faults.leafStall.windowEnd = 680;
        }
        spec.faults.push_back({"timing", faults});
        spec.base.maxBusRetries = 4;
        spec.base.watchdogRounds = 2;
        spec.base.quarantineAfterTrips = 1;
        spec.base.reintegrateAfterCycles = 2000;
        spec.hier.maxBusRetries = 64;
        spec.hier.watchdogRounds = 4;
        spec.hier.quarantineAfterTrips = 2;
        spec.hier.reintegrateAfterCycles = 4000;
        spec.hier.scrubEveryAccesses = 512;
    }
    spec.clusters = clusters;
    if (sweep_all) {
        // Only MOESI-class protocols can live on a leaf bus (aborts
        // cannot cross a bridge), so the hier sweep is the compatible
        // subset of the flat one.
        std::vector<ProtocolKind> kinds =
            clusters > 1
                ? std::vector<ProtocolKind>{ProtocolKind::Moesi,
                                            ProtocolKind::Berkeley,
                                            ProtocolKind::Dragon}
                : std::vector<ProtocolKind>{
                      ProtocolKind::Moesi, ProtocolKind::Berkeley,
                      ProtocolKind::Dragon, ProtocolKind::WriteOnce,
                      ProtocolKind::Illinois, ProtocolKind::Firefly};
        for (ProtocolKind k : kinds)
            spec.mixes.push_back(traceMix(k, procs));
    } else {
        spec.mixes.push_back(traceMix(kind, procs));
    }
    spec.workloads.push_back(traceWorkload("trace", trace));

    CampaignRunner runner(jobs, sup);
    PerfettoTraceSink sink;
    if (trace_out)
        runner.attachTrace(&sink, trace_job);
    CampaignReport report = runner.run(spec);

    if (trace_out) {
        sink.writeFile(trace_out);
        std::printf("trace: %zu events written to %s\n",
                    sink.eventCount(), trace_out);
    }
    if (metrics_out) {
        writeCampaignMetricsJson(report, metrics_out);
        std::printf("metrics: written to %s\n", metrics_out);
    }

    if (shrink) {
        const CampaignResult *failing = nullptr;
        for (const CampaignResult &r : report.results) {
            if (!r.consistent) {
                failing = &r;
                break;
            }
        }
        if (!failing || spec.faults.empty() ||
            !spec.faults[failing->job.faultIdx].faults) {
            std::printf("shrink: campaign consistent, "
                        "nothing to minimize\n");
        } else {
            // Re-run only the failing job's slice (its mix over the
            // same trace) under each candidate schedule; "still
            // fails" = any violation recorded.  Site streams are
            // name-derived, so disabling one site never perturbs the
            // others' draws.
            CampaignSpec probe = spec;
            probe.mixes = {spec.mixes[failing->job.mixIdx]};
            ShrinkResult minimal = shrinkFaultConfig(
                *spec.faults[failing->job.faultIdx].faults,
                [&probe](const FaultConfig &candidate) {
                    probe.faults = {{"probe", candidate}};
                    return !CampaignRunner(1).run(probe)
                                .allConsistent();
                },
                failing->bus.transactions);
            std::printf(
                "shrink: %zu probes, %zu sites disabled, %zu script "
                "entries dropped, %llu window transactions trimmed\n",
                minimal.probes, minimal.sitesDisabled,
                minimal.scriptEntriesDropped,
                static_cast<unsigned long long>(
                    minimal.windowTrimmed));
            std::printf("%s\n", minimal.tag().c_str());
        }
    }
    std::fputs(warnSuppressionSummary().c_str(), stderr);

    if (sweep_all) {
        // The sweep table: one row per protocol over the same trace.
        std::printf("\n%s", renderCampaignTable(report).c_str());
        return report.allConsistent() ? 0 : 1;
    }

    const CampaignResult &r = report.at(0);
    std::printf("\n%s\n%s", renderEngineResult(r.engine).c_str(),
                renderBusStats(r.bus).c_str());
    if (!r.faultReport.empty())
        std::printf("\n%s", r.faultReport.c_str());
    std::printf("\ncoherence: %s\n",
                r.consistent ? "consistent"
                             : r.violations.front().c_str());
    return r.consistent ? 0 : 1;
}
