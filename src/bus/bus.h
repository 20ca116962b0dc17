/**
 * @file
 * The Futurebus transaction engine.
 *
 * The bus executes one transaction at a time (transactions are atomic;
 * the timed layer in sim/ serializes masters onto it).  A transaction
 * follows the paper's structure:
 *
 *  1. Broadcast address cycle: the master's address and intent signals
 *     (CA, IM, BC) are presented to every other module; each snooper
 *     decides its response (CH, DI, SL, BS) from its protocol table.
 *     All responses combine by wired-OR.
 *  2. If any module asserted BS, the transaction aborts; the asserting
 *     (owner) module performs its push (a nested WriteLine transaction
 *     that updates memory) and the original transaction retries.
 *  3. Data transfer: on a read, the DI asserter (if any) supplies the
 *     line, preempting memory - and memory is NOT updated (the
 *     Futurebus limitation that motivates the O state).  On a
 *     non-broadcast word write, the DI asserter captures the word and
 *     memory is not updated; without DI memory captures it.  On a
 *     broadcast (BC) word write, memory always captures the word and
 *     every SL asserter snarfs it.  On a line push, memory captures
 *     the line.
 *  4. Commit: every snooper applies its state transition, resolving
 *     CH-conditional results against the OR of the *other* modules'
 *     CH; the master receives the OR of everyone's CH plus read data.
 */

#ifndef FBSIM_BUS_BUS_H_
#define FBSIM_BUS_BUS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bus/cost_model.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "core/events.h"
#include "bus/memory_slave.h"
#include "obs/trace_sink.h"

namespace fbsim {

class FaultInjector;
class LatencyRecorder;

/** A master's transaction request. */
struct BusRequest
{
    MasterId master = kNoMaster;
    BusCmd cmd = BusCmd::Read;
    MasterSignals sig;
    LineAddr line = 0;            ///< line address
    std::size_t wordIdx = 0;      ///< for WriteWord
    Word wdata = 0;               ///< for WriteWord
    std::span<const Word> wline;  ///< for WriteLine (push)
    /**
     * Transaction forwarded down from another bus by a BusBridge: this
     * bus's slave does not participate (the data authority is above),
     * only local snoopers respond.
     */
    bool fromBridge = false;
    /**
     * Wired-OR CH gathered on the buses the transaction has already
     * traversed (the requester's cluster); snooper-side CH
     * conditionals (e.g. CH:O/M on column 7) resolve against it in
     * addition to this bus's own CH.
     */
    bool chHint = false;
    /**
     * The paper's bus-event column for (cmd, sig), stamped by
     * Bus::execute() so each of the N snoopers reads it instead of
     * re-deriving it.  Requesters never need to set this.
     */
    BusEvent event = BusEvent::ReadByCache;
};

/** What a snooper drives during the address cycle. */
struct SnoopReply
{
    ResponseSignals resp;
};

/** Outcome handed back to the master. */
struct BusResult
{
    ResponseSignals resp;         ///< wired-OR of all snooper responses
    std::vector<Word> line;       ///< read data (BusCmd::Read only)
    bool suppliedByCache = false; ///< read data came via DI
    /**
     * False when the transaction gave up after maxRetries abort
     * rounds (possible only under fault injection; without it the bus
     * panics instead, since a fault-free protocol must converge).  A
     * non-converged transaction changed no snooper or memory state
     * and carries no read data; masters surface it as a faulted
     * access and the watchdog takes it from there.
     */
    bool converged = true;
    /** BS abort/retry count; 64-bit like BusStats::aborts so long
     *  fault campaigns cannot overflow either counter. */
    std::uint64_t aborts = 0;
    Cycles cost = 0;              ///< bus cycles incl. aborted attempts
};

/**
 * Interface of a module that participates in the broadcast address
 * cycle (every cache; non-caching masters need not register).
 *
 * Call protocol per transaction attempt: snoop() exactly once, then
 * either commit() exactly once (with the same request) or nothing (the
 * attempt aborted).  supplyLine()/captureWord() arrive between the two
 * on the module that asserted DI/SL.  performAbortPush() is called on
 * the module that asserted BS, instead of commit().
 */
class Snooper
{
  public:
    virtual ~Snooper() = default;

    /** The module's bus id. */
    virtual MasterId snooperId() const = 0;

    /**
     * True if the bus's snoop filter may suppress this module's
     * snoop() when its presence bit (maintained via notePresence) is
     * clear.  Only modules whose snoop() is a pure function of held
     * lines may opt in: a cache with no valid copy of the line neither
     * responds nor changes state, so skipping it is unobservable.
     * Modules with snoop side effects beyond held lines (bus bridges
     * track remote sharing on every address cycle) must return false
     * and are always snooped.
     */
    virtual bool filterable() const { return false; }

    /**
     * Cross-check probe: does this module hold a valid copy of `la`?
     * Only consulted in snoop-filter cross-check mode, to assert the
     * filter never suppresses a module that holds the line.  The
     * conservative default ("maybe") would trip the assert, which is
     * correct: only filterable modules are ever suppressed.
     */
    virtual bool holdsLine(LineAddr la) const { (void)la; return true; }

    /** Address cycle: choose and latch a response; no state change. */
    virtual SnoopReply snoop(const BusRequest &req) = 0;

    /** Provide the line (this module latched DI on a Read). */
    virtual void supplyLine(const BusRequest &req,
                            std::span<Word> out) = 0;

    /**
     * Commit the latched transition.
     * @param others_ch wired-OR of CH over all *other* modules.
     */
    virtual void commit(const BusRequest &req, bool others_ch) = 0;

    /** Execute the push for a latched BS response (nested transaction),
     *  then apply the push state. */
    virtual void performAbortPush(const BusRequest &req) = 0;
};

/** Aggregate bus activity counters (one per transaction, not attempt). */
struct BusStats
{
    std::uint64_t transactions = 0;
    std::uint64_t reads = 0;             ///< line fills
    std::uint64_t readsForModify = 0;    ///< fills with IM
    std::uint64_t wordWrites = 0;
    std::uint64_t broadcastWrites = 0;   ///< word writes with BC
    std::uint64_t linePushes = 0;
    std::uint64_t invalidates = 0;       ///< address-only transactions
    std::uint64_t syncs = 0;             ///< consistency commands
    std::uint64_t interventions = 0;     ///< reads supplied via DI
    std::uint64_t writeCaptures = 0;     ///< word writes absorbed via DI
    std::uint64_t aborts = 0;            ///< BS abort/retry rounds
    std::uint64_t spuriousAborts = 0;    ///< of which fault-injected
    std::uint64_t droppedResponses = 0;  ///< slave responses lost (fault)
    std::uint64_t retryExhausted = 0;    ///< transactions that gave up
    std::uint64_t responseConflicts = 0; ///< double DI/BS under faults
    std::uint64_t addressCycles = 0;     ///< incl. aborted attempts
    std::uint64_t dataWords = 0;         ///< total words moved
    Cycles busyCycles = 0;               ///< total bus occupancy
    Cycles backoffCycles = 0;            ///< idle abort-retry backoff

    /** Filtered and exhaustive runs of one workload must agree. */
    bool operator==(const BusStats &) const = default;
};

/**
 * Snoop-filter effectiveness counters.  Kept separate from BusStats:
 * transaction-level statistics are identical between filtered and
 * exhaustive runs (and tests assert so); these two necessarily differ.
 */
struct SnoopFilterStats
{
    std::uint64_t snoopsInvoked = 0;     ///< snoop() calls made
    std::uint64_t snoopsSuppressed = 0;  ///< calls skipped by the filter
};

/** The shared backplane bus. */
class Bus
{
  public:
    /** @param slave the memory side (main memory or a bridge).
     *  @param cost timing model.
     *  @param max_retries abort/retry bound before panicking. */
    Bus(MemorySlave &slave, const BusCostModel &cost,
        unsigned max_retries = 16);

    Bus(const Bus &) = delete;
    Bus &operator=(const Bus &) = delete;

    /** Register a snooping module.  Registration order is bus order. */
    void attach(Snooper *snooper);

    /**
     * Register a trace sink (any number).  Sinks see every committed
     * transaction via onBusTransaction - including nested abort
     * pushes, never aborted attempts - plus retry-exhaustion instants
     * on the fault track.
     */
    void addTraceSink(TraceSink *sink);

    /**
     * Attach a per-master latency recorder (not owned; null
     * detaches).  An attached recorder gets one recordService per
     * top-level committed transaction; detached costs one null test.
     */
    void setLatencyRecorder(LatencyRecorder *latency)
    { latency_ = latency; }

    /** Execute one transaction to completion (including retries). */
    BusResult execute(const BusRequest &req);

    /**
     * Presence notification from a filterable snooper: `holds` says
     * whether `id` now holds a valid copy of `la`.  Drives the snoop
     * filter's per-line presence bitmask.  Notifications from modules
     * that never registered (or exceeded the bitmask width) are
     * ignored; such modules are always snooped.
     */
    void notePresence(MasterId id, LineAddr la, bool holds);

    /**
     * Bulk presence wipe for one snooper: clear its bit from every
     * line's presence word (erasing entries that empty out).  The
     * reintegration path uses this so an epoch-based bulk invalidate
     * in the store needs no per-line notePresence walk.  Unknown /
     * unfilterable ids are ignored.
     */
    void clearPresence(MasterId id);

    /**
     * Enable/disable the snoop-filter fast path.  When disabled every
     * attached snooper sees every address cycle (the paper's literal
     * broadcast).  Presence is maintained either way, so the filter
     * can be toggled mid-run.
     */
    void setSnoopFilterEnabled(bool on) { filterEnabled_ = on; }
    bool snoopFilterEnabled() const { return filterEnabled_; }

    /**
     * Debug cross-check: suppressed snoopers are probed via
     * holdsLine() and the bus panics if the filter would have
     * silenced a module holding a valid copy.
     */
    void setSnoopCrossCheck(bool on) { crossCheck_ = on; }

    /**
     * Live withdrawal/insertion (P896's hot-swap story): a suspended
     * snooper is skipped in every address cycle, exactly as if the
     * board had been pulled from the backplane.  Only legal for a
     * module holding no valid lines (the system layer quarantines -
     * flush + invalidate - before suspending, and reintegrates into
     * state I), so skipping it is unobservable to the protocol.
     * Unknown ids are ignored.
     */
    void setSnooperSuspended(MasterId id, bool suspended);

    /**
     * Attach a fault injector (not owned; null detaches).  With an
     * injector attached the bus draws spurious aborts, snooper mutes
     * and response flips from it, and - because injected faults make
     * retry exhaustion a legal outcome - a transaction that still
     * draws BS after maxRetries rounds returns converged=false
     * instead of panicking.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }
    FaultInjector *faultInjector() { return faults_; }

    /** Abort/retry bound per transaction. */
    unsigned maxRetries() const { return maxRetries_; }

    /**
     * Take a line-sized buffer from the bus's pool (capacity
     * wordsPerLine(); contents unspecified).  Read results are built
     * in pooled buffers; consumers that keep the data can swap their
     * own storage into the result and recycle it, making steady-state
     * line fills allocation-free.
     */
    std::vector<Word> acquireLineBuffer();

    /** Return a buffer obtained from acquireLineBuffer (or any vector
     *  of suitable capacity) to the pool. */
    void recycleLineBuffer(std::vector<Word> &&buf);

    const BusCostModel &costModel() const { return cost_; }
    BusStats &stats() { return stats_; }
    const BusStats &stats() const { return stats_; }
    const SnoopFilterStats &filterStats() const { return filterStats_; }
    MemorySlave &slave() { return slave_; }
    std::size_t wordsPerLine() const { return slave_.wordsPerLine(); }

  private:
    /** Per-nesting-depth scratch state for one transaction attempt
     *  (reused across attempts; nested abort pushes get their own). */
    struct AttemptScratch
    {
        std::vector<Snooper *> participants;
        std::vector<std::uint8_t> chFlags;
    };

    BusResult attempt(const BusRequest &req, bool &aborted);
    AttemptScratch &scratchFor(unsigned depth);

    MemorySlave &slave_;
    BusCostModel cost_;
    unsigned maxRetries_;
    std::vector<Snooper *> snoopers_;
    /** Presence-bitmask bit of each snooper (parallel to snoopers_);
     *  0 = not filterable, always snooped. */
    std::vector<std::uint64_t> snooperBit_;
    /** Each snooper's id (parallel to snoopers_), cached at attach so
     *  the attempt loop's requester-skip needs no virtual call. */
    std::vector<MasterId> snooperId_;
    /** Withdrawn boards (parallel to snoopers_); skipped entirely. */
    std::vector<std::uint8_t> snooperSuspended_;
    std::unordered_map<MasterId, std::uint64_t> bitOfId_;
    std::uint64_t nextBit_ = 1;
    /** line -> OR of presence bits of snoopers holding a valid copy. */
    FlatMap64<std::uint64_t> presence_;
    bool filterEnabled_ = true;
    bool crossCheck_ = false;
    std::vector<TraceSink *> sinks_;
    LatencyRecorder *latency_ = nullptr;  ///< not owned; null = off
    BusStats stats_;
    SnoopFilterStats filterStats_;
    std::vector<std::unique_ptr<AttemptScratch>> scratch_;
    std::vector<std::vector<Word>> linePool_;
    FaultInjector *faults_ = nullptr;  ///< not owned; null = fault-free
    unsigned depth_ = 0;   ///< nested-push depth guard
};

} // namespace fbsim

#endif // FBSIM_BUS_BUS_H_
