#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/latency.h"
#include "obs/trace_sink.h"

namespace fbsim {

double
EngineResult::systemPower() const
{
    double sum = 0.0;
    for (const ProcTiming &p : procs)
        sum += p.utilization();
    return sum;
}

double
EngineResult::meanUtilization() const
{
    return procs.empty() ? 0.0 : systemPower() / procs.size();
}

double
EngineResult::busServiceFairness() const
{
    std::vector<double> xs;
    xs.reserve(procs.size());
    for (const ProcTiming &p : procs)
        xs.push_back(static_cast<double>(p.busServiceCycles));
    return jainFairnessIndex(xs);
}

double
EngineResult::busWaitFairness() const
{
    std::vector<double> xs;
    xs.reserve(procs.size());
    for (const ProcTiming &p : procs)
        xs.push_back(static_cast<double>(p.busWaitCycles));
    return jainFairnessIndex(xs);
}

Engine::Engine(System &system, const EngineConfig &config)
    : system_(system), config_(config)
{
}

EngineResult
Engine::run(const std::vector<RefStream *> &streams,
            std::uint64_t refs_per_proc, const RunControl *control)
{
    fbsim_assert(streams.size() == system_.numClients());
    fbsim_assert(!streams.empty());
    return runInterleaved(streams, refs_per_proc, control);
}

EngineResult
Engine::runInterleaved(const std::vector<RefStream *> &streams,
                       std::uint64_t refs_per_proc,
                       const RunControl *control)
{
    std::size_t n = streams.size();
    const Cycles hit = config_.hitCycles;

    struct ProcState
    {
        Cycles readyAt = 0;
        std::uint64_t done = 0;
        std::uint64_t fetched = 0;    ///< refs drawn from the stream
        std::uint32_t blockPos = 0;   ///< next unread ref in the block
        std::uint32_t blockLen = 0;
        bool hasRef = false;
        ProcRef ref;
    };
    std::vector<ProcState> procs(n);
    EngineResult result;
    result.procs.resize(n);
    Arbiter arbiter(config_.arbitration, n);
    Cycles bus_free = 0;

    // On the plain access path, caches with the devirtualized hit path
    // execute each reference through the fused classify-and-execute
    // probe (tryLocalRead/Write) first: a hit costs one tag lookup and
    // the oracle bookkeeping System::read/write would do.  Null takes
    // the generic wouldUseBus + System path.  Stable for the whole
    // run: on the plain path nothing can quarantine a cache or attach
    // coverage mid-run.
    std::vector<SnoopingCache *> fastCache(n, nullptr);
    if (system_.plainAccessPath()) {
        for (std::size_t i = 0; i < n; ++i) {
            SnoopingCache *c = system_.cacheOf(static_cast<MasterId>(i));
            if (c && c->fastPathEnabled())
                fastCache[i] = c;
        }
    }
    CoherenceChecker &checker = system_.checker();

    // Compact mirror of each proc's next-ready time for the
    // earliest-ready pick; a drained stream parks at the sentinel so
    // the pick needs no separate hasRef test.
    constexpr Cycles kIdle = ~Cycles{0};
    std::vector<Cycles> ready(n, 0);

    // References arrive in blocks of kFetchBlock per processor through
    // RefStream::nextBatch, never past refs_per_proc, so a complete run
    // draws exactly the references next() would.
    constexpr std::size_t kFetchBlock = 64;
    std::vector<ProcRef> block(n * kFetchBlock);

    auto fetch = [&](std::size_t i) {
        ProcState &p = procs[i];
        if (!p.hasRef && p.done < refs_per_proc) {
            ProcRef *b = &block[i * kFetchBlock];
            if (p.blockPos == p.blockLen) {
                p.blockLen = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(kFetchBlock,
                                            refs_per_proc - p.fetched));
                streams[i]->nextBatch(b, p.blockLen);
                p.fetched += p.blockLen;
                p.blockPos = 0;
            }
            p.ref = b[p.blockPos++];
            p.hasRef = true;
        }
        ready[i] = p.hasRef ? p.readyAt : kIdle;
    };
    for (std::size_t i = 0; i < n; ++i)
        fetch(i);

    // Values written are unique per (proc, sequence) so the checker's
    // oracle exercises real data movement.
    std::vector<std::uint64_t> seq(n, 0);

    // Retire proc i's reference once its readyAt is final.
    auto retire = [&](std::size_t i) {
        ProcState &p = procs[i];
        ProcTiming &timing = result.procs[i];
        timing.refs += 1;
        timing.execCycles += hit;
        timing.finishTime = p.readyAt;
        p.hasRef = false;
        p.done += 1;
        fetch(i);
    };

    // Fused path: true when proc i's reference was a pure local hit
    // and has been executed and retired; false when nothing changed.
    auto tryLocal = [&](std::size_t i, SnoopingCache &cache) {
        ProcState &p = procs[i];
        if (p.ref.write) {
            Word value = (static_cast<Word>(i + 1) << 48) ^ (seq[i] + 1);
            if (!cache.tryLocalWrite(p.ref.addr, value))
                return false;
            ++seq[i];
            checker.noteWrite(p.ref.addr, value);
        } else {
            Word got = 0;
            if (!cache.tryLocalRead(p.ref.addr, got))
                return false;
            if (got != checker.expected(p.ref.addr))
                system_.recordReadMismatch(p.ref.addr, got);
        }
        if (config_.accessLog)
            config_.accessLog->push_back({static_cast<MasterId>(i),
                                          p.ref.write, p.ref.addr});
        p.readyAt += hit;
        retire(i);
        return true;
    };

    auto execute = [&](std::size_t i, Cycles start) {
        ProcState &p = procs[i];
        AccessOutcome outcome;
        if (p.ref.write) {
            Word value = (static_cast<Word>(i + 1) << 48) ^ (++seq[i]);
            outcome = system_.write(static_cast<MasterId>(i), p.ref.addr,
                                    value);
        } else {
            outcome = system_.read(static_cast<MasterId>(i), p.ref.addr);
        }
        if (outcome.faulted)
            ++result.faultedRefs;
        if (config_.accessLog)
            config_.accessLog->push_back({static_cast<MasterId>(i),
                                          p.ref.write, p.ref.addr});
        if (outcome.usedBus) {
            // Granted at `start`: charge wait and service time, busBusy,
            // the latency recorder and the trace spans, then advance
            // bus_free and readyAt past the transaction.
            ProcTiming &timing = result.procs[i];
            const Cycles wait = start - p.readyAt;
            const Cycles busCycles = outcome.busCycles;
            timing.busWaitCycles += wait;
            timing.busServiceCycles += busCycles;
            result.busBusy += busCycles;
            if (config_.latency)
                config_.latency->recordWait(static_cast<MasterId>(i), wait);
            if (config_.trace) {
                if (wait > 0) {
                    config_.trace->onSpan("arb-wait", kTraceEnginePid,
                                          static_cast<std::uint32_t>(i),
                                          p.readyAt, wait, std::string());
                }
                config_.trace->onSpan(
                    p.ref.write ? "write" : "read", kTraceEnginePid,
                    static_cast<std::uint32_t>(i), start, busCycles,
                    strprintf("addr 0x%llx",
                              static_cast<unsigned long long>(p.ref.addr)));
            }
            bus_free = start + busCycles;
            p.readyAt = bus_free + hit;
        } else {
            p.readyAt += hit;
        }
        retire(i);
    };

    // Cooperative cancellation: poll the supervisor between
    // references, amortized so the steady-clock read stays off the
    // per-reference path.
    std::uint64_t untilCheck =
        control ? std::max<std::uint64_t>(1, control->checkEveryRefs)
                : 0;
    std::uint64_t executed = 0;

    // Earliest pending reference, lowest index on ties, by a cursor
    // over the last full scan's level: levelT is the minimum ready time
    // that scan found and [cur, last] the indices that held it.  Ready
    // times only grow, so every index outside [cur, last] (and every
    // one the cursor has passed) stays above levelT, and the first
    // index in [cur, last] still at levelT is exactly what a fresh scan
    // would pick.  Only once the cursor runs past last is a rescan due:
    // once per level in lockstep runs, once per reference when all
    // ready times differ.
    Cycles levelT = 0;
    std::size_t cur = 1;
    std::size_t last = 0;

    for (;;) {
        if (control && ++executed >= untilCheck) {
            executed = 0;
            if (control->shouldStop()) {
                result.cancelled = true;
                break;
            }
        }
        while (cur <= last && ready[cur] != levelT)
            ++cur;
        if (cur > last) {
            levelT = ready[0];
            cur = last = 0;
            for (std::size_t i = 1; i < n; ++i) {
                if (ready[i] < levelT) {
                    levelT = ready[i];
                    cur = last = i;
                } else if (ready[i] == levelT) {
                    last = i;
                }
            }
            if (levelT == kIdle)
                break;
        }
        const std::size_t imin = cur;

        // A pure hit executes at once.  A miss falls through to the
        // generic classification, which stays authoritative: a
        // reference the probe declines may still complete locally.
        if (fastCache[imin] && tryLocal(imin, *fastCache[imin]))
            continue;

        ProcState &p = procs[imin];
        bool needs_bus = system_.wouldUseBus(static_cast<MasterId>(imin),
                                             p.ref.write, p.ref.addr);
        if (!needs_bus) {
            // Local work never waits for the bus.
            execute(imin, p.readyAt);
            continue;
        }

        // Bus transaction: grant at max(bus free, requester ready);
        // everyone who is also ready by then competes in arbitration.
        // The arbiter probes candidates lazily in its own scan order,
        // so only masters up to the winner pay the cache-state lookup;
        // imin is known to be ready and bus-bound already.
        Cycles grant = std::max(bus_free, p.readyAt);
        std::optional<MasterId> winner =
            arbiter.grantWhere([&](std::size_t i) {
                return i == imin ||
                       (ready[i] <= grant &&
                        system_.wouldUseBus(static_cast<MasterId>(i),
                                            procs[i].ref.write,
                                            procs[i].ref.addr));
            });
        fbsim_assert(winner.has_value());
        std::size_t w = *winner;
        execute(w, std::max(bus_free, procs[w].readyAt));
    }

    for (const ProcTiming &p : result.procs)
        result.elapsed = std::max(result.elapsed, p.finishTime);
    result.watchdogTrips = system_.watchdogTrips();
    result.quarantines = system_.quarantineCount();
    result.reintegrations = system_.reintegrationCount();
    return result;
}

} // namespace fbsim
