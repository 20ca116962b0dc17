/**
 * @file
 * The benchmark's workloads, as fbsim inputs.
 *
 * Each simulation workload is a list of campaigns (CampaignSpecs plus
 * how to run them); model_check is a list of explorer configurations.
 * For arch85_lineup the default --seed reproduces the bench/
 * binaries' own stream seeds (and therefore their tables); any other
 * seed gives a different, equally deterministic set of reference
 * streams.  The other workloads' inputs are fixed; see each one.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_spec.h"
#include "mc/explorer.h"

namespace perfbench {

/** The seed that reproduces the bench/ binaries' inputs. */
inline constexpr std::uint64_t kBenchSeed = 1;

/**
 * Host-side start and end of each job of a campaign.  The runner
 * exposes no per-job host time, so the campaign's stream factories
 * stamp a job's start as it builds processor 0's stream on its worker
 * thread.  A job ends where the next job on its worker starts, or
 * when the campaign returns; streams that outlive their job's end
 * can stamp it with finish().
 */
class JobClock
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;

    struct Interval
    {
        TimePoint start;
        TimePoint end;
        std::size_t worker = 0;   ///< dense per-run worker number
        bool finished = false;    ///< end stamped by finish()
    };

    /** Expect the jobs whose seeds are `job_seeds` (index order);
     *  stamps of other seeds are ignored. */
    void reset(std::vector<std::uint64_t> job_seeds);
    void start(std::uint64_t job_seed);
    void finish(std::uint64_t job_seed);

    /** Per-job intervals, in job order, of a campaign that returned
     *  at `returned`. */
    std::vector<Interval> intervals(TimePoint returned);

  private:
    std::size_t indexOf(std::uint64_t job_seed) const;

    std::mutex mu_;
    std::vector<std::uint64_t> seeds_;       ///< guarded by mu_
    std::vector<Interval> jobs_;             ///< guarded by mu_
    std::vector<std::thread::id> workers_;   ///< guarded by mu_
};

/** One campaign of a simulation workload. */
struct Campaign
{
    std::string name;
    fbsim::CampaignSpec spec;
    unsigned workers = 1;     ///< CampaignRunner worker threads
    /** Attach a PerfettoTraceSink to job 0 of every pass. */
    bool perfetto = false;
    /** Stamped by the spec's stream factories. */
    std::shared_ptr<JobClock> clock;
};

/** One model-checker exploration. */
struct Exploration
{
    std::string name;
    fbsim::mc::ExploreConfig config;
};

/** [Arch85] studies P1, P3-P6 (bench/perf_protocols.cc,
 *  perf_line_size.cc, perf_mixed_protocols.cc,
 *  ablation_choice_points.cc, perf_cost_sensitivity.cc). */
std::vector<Campaign> arch85Lineup(std::uint64_t seed);

/**
 * P2: {update, invalidate, update+discard} x {producer-consumer,
 * read-mostly, migratory ping-pong} (perf_update_vs_invalidate.cc),
 * always with the bench's stream seeds.  Its nine jobs take from 5 ms
 * to 3 s, and seed-driven streams change the middle jobs' work (the
 * invalidate read-mostly job's rollbacks), so across seeds the median
 * job swapped between jobs and job_p50_ms spread by 26%.
 */
std::vector<Campaign> sharingPatterns();

/**
 * The synthetic 4-processor Archibald-Baer trace of
 * `trace_driven --generate T 4 20000`.  Not varied by --seed: the
 * replay is the EXPERIMENTS.md fault recipe, and under its fixed
 * fault schedule another trace moves single jobs' host time by half
 * (the hier Berkeley job: 7.7 ms on one trace, 11.2 ms on another),
 * which would measure the input rather than the program.
 */
std::vector<fbsim::TraceRef> syntheticTrace();

/** The trace_driven --faults replay: the six-protocol flat sweep and
 *  the 2-cluster MOESI/Berkeley/Dragon hier sweep, 2 workers each. */
std::vector<Campaign>
faultedReplay(std::shared_ptr<const std::vector<fbsim::TraceRef>> trace);

/** The nightly deep model-checking set: every protocol at 4 caches x
 *  2 lines, plus the four compatible 3-cache mixes at 2 lines. */
std::vector<Exploration> modelCheckSet();

/** Copy of `campaigns` running under `ordering`. */
std::vector<Campaign> withOrdering(const std::vector<Campaign> &campaigns,
                                   fbsim::EngineOrdering ordering);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
