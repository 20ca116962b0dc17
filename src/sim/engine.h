/**
 * @file
 * Timed simulation: drives per-processor reference streams through a
 * System, serializing bus transactions through an Arbiter and charging
 * cycles from the bus cost model.
 *
 * The model: each processor executes one reference per `hitCycles` of
 * local work; a reference that needs the bus waits for the bus to be
 * free (and to win arbitration) and then occupies it for the
 * transaction cost.  Processor utilization and bus utilization are the
 * paper's section 5.2 / [Arch85] comparison metrics.
 */

#ifndef FBSIM_SIM_ENGINE_H_
#define FBSIM_SIM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <vector>

#include "bus/arbiter.h"
#include "sim/system.h"
#include "trace/ref_stream.h"

namespace fbsim {

class LatencyRecorder;
class TraceSink;

/**
 * Engine ordering.  There is one run loop, the interleaved scheduler,
 * so this enum has one value.  No effect; kept because perfbench
 * names it; delete it in the next change to the benchmark.
 */
enum class EngineOrdering : std::uint8_t
{
    Interleaved = 0,
};

/**
 * Speculation counters.  No engine loop speculates, so every field
 * reads zero.  No effect; kept because perfbench names it; delete it
 * in the next change to the benchmark.
 */
struct SpecStats
{
    std::uint64_t batches = 0;
    std::uint64_t specRefs = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rolledBackRefs = 0;
};

/** One functionally-committed access, in commit order. */
struct EngineAccess
{
    MasterId proc = 0;
    bool write = false;
    Addr addr = 0;

    bool operator==(const EngineAccess &) const = default;
};

/**
 * Cooperative cancellation for supervised runs.  Worker threads cannot
 * be preempted, so the engine polls between references: every
 * `checkEveryRefs` executed references it tests the cancel flag and
 * the wall-clock deadline, and stops the run (marking the result
 * cancelled) when either fires.  Granularity is a few hundred
 * references - microseconds of overshoot, never an unbounded hang.
 */
struct RunControl
{
    /** External stop request (owned by the supervisor); may be null. */
    const std::atomic<bool> *cancel = nullptr;
    /** Wall-clock budget; ignored unless hasDeadline. */
    std::chrono::steady_clock::time_point deadline{};
    bool hasDeadline = false;
    std::uint64_t checkEveryRefs = 512;

    bool
    shouldStop() const
    {
        if (cancel && cancel->load(std::memory_order_relaxed))
            return true;
        return hasDeadline &&
               std::chrono::steady_clock::now() >= deadline;
    }
};

/** Timed-engine configuration. */
struct EngineConfig
{
    ArbitrationKind arbitration = ArbitrationKind::RoundRobin;
    /** Processor cycles per reference when it completes locally. */
    Cycles hitCycles = 1;
    /**
     * Optional per-master latency instrumentation (arbitration wait;
     * service time is recorded by the Bus itself when the recorder is
     * also attached there).  Null = detached, zero overhead beyond a
     * branch per bus access.  Not owned.
     */
    LatencyRecorder *latency = nullptr;
    /** Optional trace sink for per-reference bus spans.  Null =
     *  detached.  Not owned. */
    TraceSink *trace = nullptr;
    /** No effect; kept because perfbench names it; delete it in the
     *  next change to the benchmark. */
    EngineOrdering ordering = EngineOrdering::Interleaved;
    /** No effect (SpecStats reads zero); kept because perfbench names
     *  it; delete it in the next change to the benchmark. */
    SpecStats *specStats = nullptr;
    /**
     * Functional access log sink (not owned; null = detached).  The
     * engine appends each reference as it executes, so the log is one
     * total order of the run's accesses - the replay differential runs
     * it through the abstract model.
     */
    std::vector<EngineAccess> *accessLog = nullptr;
};

/** Per-processor timing results. */
struct ProcTiming
{
    std::uint64_t refs = 0;
    Cycles finishTime = 0;
    Cycles execCycles = 0;     ///< useful (hit-equivalent) work
    Cycles busWaitCycles = 0;  ///< arbitration + bus-busy waiting
    Cycles busServiceCycles = 0;

    /** Fraction of time doing useful work. */
    double
    utilization() const
    {
        return finishTime == 0
                   ? 0.0
                   : static_cast<double>(execCycles) /
                         static_cast<double>(finishTime);
    }

    /** Exact comparison for determinism checks. */
    bool operator==(const ProcTiming &) const = default;
};

/** Whole-run timing results. */
struct EngineResult
{
    Cycles elapsed = 0;          ///< max processor finish time
    Cycles busBusy = 0;          ///< cycles the bus carried a transaction
    std::vector<ProcTiming> procs;
    /** Fault-campaign outcomes (zero in fault-free runs). */
    std::uint64_t faultedRefs = 0;   ///< refs that gave up on retry
    std::uint64_t watchdogTrips = 0; ///< no-progress detections
    std::uint64_t quarantines = 0;   ///< caches isolated
    std::uint64_t reintegrations = 0; ///< caches hot-swapped back in
    /** True when a RunControl stopped the run early; the timing
     *  fields then cover only the references actually executed. */
    bool cancelled = false;

    /** Exact comparison for determinism checks. */
    bool operator==(const EngineResult &) const = default;

    /** Bus utilization in [0,1]. */
    double
    busUtilization() const
    {
        return elapsed == 0 ? 0.0
                            : static_cast<double>(busBusy) /
                                  static_cast<double>(elapsed);
    }

    /** Sum of per-processor utilizations ("effective processors"). */
    double systemPower() const;

    /** Mean processor utilization. */
    double meanUtilization() const;

    /**
     * Jain fairness index over per-processor bus service cycles
     * ((sum x)^2 / (n * sum x^2), 1.0 = perfectly fair).  Derived from
     * the ProcTiming vector, so determinism comparisons via
     * operator== are unaffected.
     */
    double busServiceFairness() const;

    /** Jain fairness index over per-processor bus wait cycles. */
    double busWaitFairness() const;
};

/** Drives reference streams through a System with timing. */
class Engine
{
  public:
    Engine(System &system, const EngineConfig &config);

    /**
     * Run every stream for `refs_per_proc` references.
     * streams[i] feeds System client i; streams.size() must equal the
     * system's client count.  A non-null `control` is polled
     * periodically for cooperative cancellation (supervised jobs).
     */
    EngineResult run(const std::vector<RefStream *> &streams,
                     std::uint64_t refs_per_proc,
                     const RunControl *control = nullptr);

  private:
    /**
     * The interleaved loop: one global readyAt scan per reference.  On
     * the plain access path a cache with the devirtualized hit path
     * tries each reference through the fused probe first; everything
     * else - misses, and every access while per-access machinery
     * (fault injection, per-access checking, scheduled reintegrations)
     * is armed - goes through the full System wrapper, whose
     * observable behaviour depends on the exact global access order.
     */
    EngineResult runInterleaved(const std::vector<RefStream *> &streams,
                                std::uint64_t refs_per_proc,
                                const RunControl *control);

    System &system_;
    EngineConfig config_;
};

} // namespace fbsim

#endif // FBSIM_SIM_ENGINE_H_
