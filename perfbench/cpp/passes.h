/**
 * @file
 * One pass of a workload: every campaign or exploration it holds, run
 * once through fbsim's public entry points, with per-job host times,
 * the output oracle and the per-layer work counts.
 */

#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/** Per-layer work counts of one pass.  Simulation-domain counts are
 *  deterministic: two passes over the same inputs read the same. */
struct Counters
{
    std::uint64_t jobs = 0;
    // sim
    std::uint64_t refs = 0;
    std::uint64_t specBatches = 0;
    std::uint64_t specRefs = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rolledBackRefs = 0;
    std::uint64_t busWaitCycles = 0;
    // bus
    std::uint64_t transactions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t linePushes = 0;
    std::uint64_t interventions = 0;
    std::uint64_t broadcastWrites = 0;
    std::uint64_t snoopsInvoked = 0;
    std::uint64_t snoopsSuppressed = 0;
    // cache
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidationsRecv = 0;
    std::uint64_t updatesRecv = 0;
    std::uint64_t abortPushes = 0;
    // checker
    std::uint64_t violations = 0;
    // fault
    std::uint64_t faultsInjected = 0;
    std::uint64_t retryExhausted = 0;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t reintegrations = 0;
    // hier
    std::uint64_t salvageServes = 0;
    std::uint64_t scrubDivergence = 0;
    // mc
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    // obs
    std::uint64_t traceEvents = 0;

    void add(const fbsim::CampaignResult &r);
};

/** One job's row of the per-job table the traced run prints. */
struct JobRow
{
    std::string campaign;
    std::string label;
    double ms = 0;
    std::uint64_t refs = 0;
    std::uint64_t specRefs = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rolledBackRefs = 0;
    bool ok = true;
    std::string note;   ///< why the job failed ("" when ok)
};

/** What one pass produced. */
struct PassResult
{
    double seconds = 0;          ///< host time of the whole pass
    std::uint64_t events = 0;    ///< refs committed / transitions
    std::vector<double> jobMs;   ///< host time of each job
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One digest per campaign (table + metrics JSON) or exploration
     *  (graph fingerprints and counts). */
    std::vector<std::uint64_t> digests;
    Counters counters;
    std::vector<JobRow> rows;
    /** Host time of the workers, summed over jobs, and the time the
     *  campaigns held them (workers x campaign wall time). */
    double busySeconds = 0;
    double heldSeconds = 0;
};

/** Digest of what a user reads from a campaign: the rendered table
 *  and the metrics JSON, minus its process-wide "process" block. */
std::uint64_t digestReport(const fbsim::CampaignReport &report);

/** One digest over several, in order. */
std::uint64_t digestOf(const std::vector<std::uint64_t> &digests);

/** Digest of an exploration's graph: counts, fingerprints, verdict. */
std::uint64_t digestExploration(const fbsim::mc::ExploreResult &r);

/**
 * Digest of a report with the speculation counters cleared: what
 * Strict and Interleaved ordering must agree on byte for byte.  (The
 * table grows spec%/batches/rollbk columns when a job speculated;
 * those count the mechanism's work, not the simulated outcome.)
 */
std::uint64_t digestOrderingFree(fbsim::CampaignReport report);

/**
 * Run every campaign once.  A non-null `reference` holds the digests
 * this pass must reproduce: a campaign whose digest differs counts
 * all its jobs as failed.  `reports`, when non-null, receives every
 * campaign's report.
 */
PassResult runCampaigns(std::vector<Campaign> &campaigns, SpanLog &log,
                        std::size_t parent,
                        const std::vector<std::uint64_t> *reference,
                        std::vector<fbsim::CampaignReport> *reports =
                            nullptr);

/** Run every exploration once; same reference rule per exploration.
 *  `first_result`, when non-null, receives the first exploration's
 *  result. */
PassResult runExplorations(const std::vector<Exploration> &explorations,
                           SpanLog &log, std::size_t parent,
                           const std::vector<std::uint64_t> *reference,
                           fbsim::mc::ExploreResult *first_result =
                               nullptr);

/**
 * Traced-run decomposition: each job rebuilt by hand from its spec
 * and driven through the public System/HierSystem and Engine/
 * HierEngine entry points, with spans sim.build, sim.run / hier.run
 * and checker.verify around the three steps runCampaignJob performs
 * in one call.
 */
void decomposeJobs(std::vector<Campaign> &campaigns, SpanLog &log,
                   std::size_t parent);

/**
 * Host seconds of job 0 of `campaign` through runCampaignJob with a
 * PerfettoTraceSink attached (`attached`) or without one.
 */
double timeDesignatedJob(const Campaign &campaign, bool attached,
                         SpanLog &log, std::size_t parent);

} // namespace perfbench

#endif // PERFBENCH_PASSES_H_
