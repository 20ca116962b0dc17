/**
 * @file
 * Experiment P6 (section 5.2, last paragraph): "the preferred protocol
 * is sensitive to the implementation of the bus, the memory and the
 * caches.  Changes in their relative performance can change the cost
 * of various bus operations ... and change the preferred actions."
 *
 * Sweeps the memory latency (relative to cache-to-cache supply) and
 * the broadcast glitch penalty, and reports how the update-vs-
 * invalidate preference and the value of intervention shift.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

ProtocolSetup
sharedWriteSetup(MoesiPolicy::SharedWrite shared_write)
{
    ProtocolSetup setup;
    setup.chooser = ChooserKind::Policy;
    setup.policy.sharedWrite = shared_write;
    return setup;
}

CostPoint
costPoint(Cycles mem_latency, Cycles glitch)
{
    CostPoint c;
    c.name = strprintf("mem=%llu/glitch=%llu",
                       static_cast<unsigned long long>(mem_latency),
                       static_cast<unsigned long long>(glitch));
    c.cost.memLatency = mem_latency;
    c.cost.glitchPenalty = glitch;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("=== P6: sensitivity of the preferred action to "
                "relative hardware costs (section 5.2) ===\n\n");

    const unsigned jobs = parseJobs(argc, argv);
    const Cycles kMem[] = {2, 6, 16, 32};
    const Cycles kGlitch[] = {0, 4};

    // {update, invalidate} x the cost grid in one campaign.  The
    // grid carries two extra glitch=1 points used by the gap check
    // below; Arch85 streams keep the historical fixed seed (21).
    CampaignSpec spec;
    spec.refsPerProc = 8000;
    spec.mixes.push_back(
        mixOf(sharedWriteSetup(MoesiPolicy::SharedWrite::Broadcast), 6));
    spec.mixes.back().name = "update";
    spec.mixes.push_back(mixOf(
        sharedWriteSetup(MoesiPolicy::SharedWrite::Invalidate), 6));
    spec.mixes.back().name = "invalidate";
    for (Cycles mem : kMem) {
        for (Cycles glitch : kGlitch)
            spec.costs.push_back(costPoint(mem, glitch));
    }
    const std::size_t kFastG1 = spec.costs.size();
    spec.costs.push_back(costPoint(2, 1));
    const std::size_t kSlowG1 = spec.costs.size();
    spec.costs.push_back(costPoint(32, 1));
    Arch85Params params;
    params.pShared = 0.25;
    params.sharedLines = 16;
    params.pSharedWrite = 0.4;
    spec.workloads.push_back(arch85Workload("arch85", params, 21));
    CampaignReport report = CampaignRunner(jobs).run(spec);

    std::printf("update vs invalidate (bus cycles per reference) as "
                "memory slows and broadcasts get cheaper/dearer:\n\n");
    std::printf("%-28s %12s %12s %10s\n",
                "mem latency / glitch", "update", "invalidate",
                "preferred");
    bool ok = true;
    int update_wins = 0, inval_wins = 0;
    for (std::size_t ci = 0; ci < kFastG1; ++ci) {
        Cycles mem = kMem[ci / std::size(kGlitch)];
        Cycles glitch = kGlitch[ci % std::size(kGlitch)];
        RunMetrics up = metricsOf(report.at(0, 0, ci));
        RunMetrics inv = metricsOf(report.at(1, 0, ci));
        bool update_better = up.procUtilization > inv.procUtilization;
        (update_better ? update_wins : inval_wins)++;
        std::printf("mem=%-3llu glitch=%-14llu %12.3f %12.3f %10s\n",
                    static_cast<unsigned long long>(mem),
                    static_cast<unsigned long long>(glitch),
                    up.busCyclesPerRef, inv.busCyclesPerRef,
                    update_better ? "update" : "invalidate");
        ok = ok && up.consistent && inv.consistent;
    }

    // The key structural effect: invalidate policies convert shared
    // writes into re-read misses, so their cost scales with memory
    // latency; update writes don't.  As memory slows, the update
    // advantage must widen.
    RunMetrics up_fast = metricsOf(report.at(0, 0, kFastG1));
    RunMetrics inv_fast = metricsOf(report.at(1, 0, kFastG1));
    RunMetrics up_slow = metricsOf(report.at(0, 0, kSlowG1));
    RunMetrics inv_slow = metricsOf(report.at(1, 0, kSlowG1));
    double gap_fast =
        inv_fast.busCyclesPerRef - up_fast.busCyclesPerRef;
    double gap_slow =
        inv_slow.busCyclesPerRef - up_slow.busCyclesPerRef;
    std::printf("\nupdate advantage (bus cyc/ref saved): %.3f at "
                "mem=2, %.3f at mem=32 - %s with memory "
                "latency\n",
                gap_fast, gap_slow,
                gap_slow > gap_fast ? "widening" : "narrowing");
    ok = ok && gap_slow > gap_fast;

    // Intervention value: cache-to-cache supply matters more as
    // memory slows.  A second campaign: preferred MOESI over the
    // memory-latency axis (historical seed 23).
    std::printf("\nintervention value: utilization with cache supply "
                "latency 2 as memory slows\n");
    CampaignSpec ispec;
    ispec.refsPerProc = 6000;
    ispec.mixes.push_back(mixOf(ProtocolSetup{}, 6));
    for (Cycles mem : kMem)
        ispec.costs.push_back(costPoint(mem, 1));   // default glitch
    Arch85Params iparams;
    iparams.pShared = 0.25;
    ispec.workloads.push_back(arch85Workload("arch85", iparams, 23));
    std::vector<RunMetrics> irows = runCampaignMetrics(ispec, jobs);
    for (std::size_t ci = 0; ci < std::size(kMem); ++ci) {
        const RunMetrics &m = irows[ci];
        std::printf("  mem=%-4llu util=%.3f cyc/ref=%.3f\n",
                    static_cast<unsigned long long>(kMem[ci]),
                    m.procUtilization, m.busCyclesPerRef);
        ok = ok && m.consistent;
    }

    return verdict(ok, "P6 cost sensitivity shape");
}
