/**
 * @file
 * Table-driven snooping cache controller.
 *
 * One controller class interprets any ProtocolTable - MOESI itself or
 * any of the paper's Tables 3-7 - with the choice points delegated to
 * an ActionChooser.  This is the design that makes section 3.4 literal:
 * a cache can be "MOESI preferred", "Berkeley", "random member of the
 * class", etc., purely by configuration, and mixed systems follow.
 *
 * The same class also implements the write-through cache of the paper
 * by restricting itself to the "*" alternatives of Tables 1/2 (its V
 * state is S); see ClientKind.
 */

#ifndef FBSIM_PROTOCOLS_SNOOPING_CACHE_H_
#define FBSIM_PROTOCOLS_SNOOPING_CACHE_H_

#include <memory>
#include <optional>
#include <string>

#include "bus/bus.h"
#include "cache/line_store.h"
#include "common/random.h"
#include "core/policy.h"
#include "core/protocol_table.h"
#include "protocols/bus_client.h"
#include "protocols/cache_stats.h"
#include "protocols/transition_coverage.h"

namespace fbsim {

/** Configuration of one snooping cache. */
struct SnoopingCacheConfig
{
    CacheGeometry geometry;
    ReplacementKind replacement = ReplacementKind::LRU;
    /** CopyBack or WriteThrough (NonCaching uses NonCachingMaster). */
    ClientKind kind = ClientKind::CopyBack;
    /** Seed for the replacement policy (Random). */
    std::uint64_t seed = 1;
    /**
     * Section 5.2 refinement: when a broadcast-written line is nearing
     * replacement, discard it instead of updating it (requires the
     * chosen table cell to offer an invalidate alternative).
     */
    bool discardNearReplacement = false;
};

/** A snooping cache: processor port + bus snooper. */
class SnoopingCache : public BusClient, public Snooper
{
  public:
    /**
     * @param id bus module id.
     * @param bus the shared bus (must outlive the cache).
     * @param table protocol definition (must outlive the cache).
     * @param chooser action selection strategy (owned).
     * @param config geometry etc.
     */
    SnoopingCache(MasterId id, Bus &bus, const ProtocolTable &table,
                  std::unique_ptr<ActionChooser> chooser,
                  const SnoopingCacheConfig &config);

    /**
     * Construct over an explicit line store (e.g. a SectorStore for
     * the section 5.1 sector-cache organization).  `line_bytes` is the
     * system line (transfer subsector) size.
     */
    SnoopingCache(MasterId id, Bus &bus, const ProtocolTable &table,
                  std::unique_ptr<ActionChooser> chooser,
                  std::unique_ptr<LineStore> store,
                  std::size_t line_bytes, ClientKind kind,
                  bool discard_near_replacement = false);

    // BusClient interface.
    MasterId clientId() const override { return id_; }
    const char *protocolName() const override;
    AccessOutcome read(Addr addr) override;
    AccessOutcome write(Addr addr, Word value) override;
    AccessOutcome flush(Addr addr, bool keep_copy) override;

    // Snooper interface.  A cache's snoop() is a pure function of its
    // held lines, so it opts into the bus's snoop filter and keeps the
    // filter's presence bitmask current via setLineState().
    MasterId snooperId() const override { return id_; }
    bool filterable() const override { return true; }
    bool holdsLine(LineAddr la) const override
    { return cachedPeek(la) != nullptr; }
    SnoopReply snoop(const BusRequest &req) override;
    void supplyLine(const BusRequest &req, std::span<Word> out) override;
    void commit(const BusRequest &req, bool others_ch) override;
    void performAbortPush(const BusRequest &req) override;

    // Inspection (tests, checker, explorer).
    const ProtocolTable &table() const { return table_; }
    const LineStore &store() const { return *store_; }
    std::size_t lineBytes() const { return lineBytes_; }
    ClientKind kind() const { return kind_; }

    /** Valid line holding `la`, or null (checker access). */
    const CacheLine *peekLine(LineAddr la) const
    { return cachedPeek(la); }

    /** Visit every valid line (checker access). */
    void
    forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const
    {
        store_->forEachValidLine(fn);
    }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    /** Attach a coverage recorder (not owned; null detaches). */
    void setCoverage(TransitionCoverage *coverage)
    {
        coverage_ = coverage;
        updateFastPath();
    }

    /**
     * Graceful degradation: flush every owned line to memory (via the
     * table's legal Flush actions), invalidate all copies, and bypass
     * the cache from then on - reads and writes go straight to the bus
     * like a non-caching master's, so the processor keeps running
     * coherently, just slower.  Called by the system layer when this
     * cache trips the livelock watchdog or fails a data-integrity
     * check.  Returns the bus traffic of the flush sweep; if a flush
     * push itself fails to converge the line is force-invalidated with
     * a warning (loud data loss beats silent corruption).
     */
    AccessOutcome quarantine();
    bool quarantined() const { return quarantined_; }

    /**
     * Hot-swap rejoin, the inverse of quarantine(): the paper's
     * compatibility argument (section 3.4) makes a cache whose every
     * line is in state I trivially compatible with any running bus, so
     * a quarantined cache may resume service at any time by ensuring
     * exactly that.  Invalidates any residual copies to I (keeping the
     * bus's snoop-filter presence bitmask exact), drops latched snoop
     * state, and clears the bypass flag; the next accesses behave as
     * cold I-state misses.  Returns false when not quarantined.  The
     * system layer (System::reintegrate) re-registers the cache with
     * the checker oracle and un-suspends its bus snooping around this.
     */
    bool reintegrate();

    /**
     * Fault-degraded mode (set by the system layer when an injector is
     * attached): a snooped bus event with no table cell for the line's
     * state - reachable only after a fault has already driven the
     * system into states the protocol never generates, e.g. divergent
     * double ownership from a muted invalidate - is ignored like a
     * missed address cycle (no response, no transition) and counted,
     * instead of panicking.  The checker reports the divergence.
     */
    void setFaultTolerant(bool on) { faultTolerant_ = on; }

    /**
     * Fault injection: flip one random bit in one random valid line's
     * data (victim chosen via `rng`).  Returns the corrupted line's
     * address, or nullopt if the cache holds no valid line.  Does NOT
     * count the injection - the caller owns the FaultStats.
     */
    std::optional<LineAddr> corruptRandomBit(Rng &rng);

    /** True when a write to a line in state `s` completes without the
     *  bus: copy-back M or E.  The one definition both the timed
     *  engine's classification (System::wouldUseBus) and the fused
     *  write hit plans use. */
    bool silentWrite(State s) const
    {
        return kind_ != ClientKind::WriteThrough &&
               (s == State::M || s == State::E);
    }

    /** Current state of the line containing `addr` (I if absent).
     *  Answered from the store's packed tag/state arrays: the timed
     *  engine classifies every reference through here, so the probe
     *  must not touch CacheLine objects. */
    State lineState(Addr addr) const
    {
        LineAddr la = lineOf(addr);
        return plain_ ? plain_->tags().stateOf(la)
                      : store_->stateOf(la);
    }

    /** True when tryLocalRead/tryLocalWrite may be used: the
     *  devirtualized hit path is armed (deterministic chooser, plain
     *  store, no coverage recorder, not quarantined). */
    bool fastPathEnabled() const { return fastLocal_; }

    /**
     * Fused-probe accesses for the timed engine: classification and
     * execution fused into one tag probe.  A pure local hit executes
     * with exactly read()/write() semantics and stats and returns
     * true; anything else (miss, bus-bound cell, conditional
     * transition) returns false having changed nothing, and the
     * caller routes the reference through the generic path.  A false
     * return coincides with wouldUseBus() for every table in the
     * suite, because the pure hit plans cover exactly the bus-free
     * cells.  Callers must check fastPathEnabled() first.
     */
    bool
    tryLocalRead(Addr addr, Word &out)
    {
        TagStore &tags = plain_->tags();
        CacheLine *l = tags.find(lineOf(addr));
        if (l == nullptr)
            return false;
        HitPlan &p = readHit_[static_cast<int>(l->state)];
        if (!p.filled)
            fillHitPlan(p, false, l->state);
        if (!p.pure)
            return false;
        ++stats_.reads;
        ++stats_.readHits;
        out = l->data[wordIndexOf(addr)];
        tags.touch(*l);
        return true;
    }

    /** Write counterpart of tryLocalRead() (pure hits: M stays M,
     *  E->M - valid-to-valid, so no presence update is due). */
    bool
    tryLocalWrite(Addr addr, Word value)
    {
        TagStore &tags = plain_->tags();
        CacheLine *l = tags.find(lineOf(addr));
        if (l == nullptr)
            return false;
        HitPlan &p = writeHit_[static_cast<int>(l->state)];
        if (!p.filled)
            fillHitPlan(p, true, l->state);
        if (!p.pure)
            return false;
        ++stats_.writes;
        ++stats_.writeHits;
        l->data[wordIndexOf(addr)] = value;
        if (p.next != l->state)
            tags.setState(*l, p.next);
        tags.touch(*l);
        return true;
    }

  private:
    /** Dispatch one local event on the line's current state. */
    AccessOutcome dispatchLocal(LocalEvent ev, Addr addr, Word value,
                                int depth);

    /** Execute a chosen local action on `line` (the resident line for
     *  `addr`, or null when the address misses). */
    AccessOutcome executeLocal(const LocalAction &action, LocalEvent ev,
                               Addr addr, Word value, int depth,
                               CacheLine *line);

    /** Evict (flushing if owned) to make room, and install `la`.
     *  Null if a victim's writeback failed to converge (fault
     *  injection): the victim keeps its state and the access fails. */
    CacheLine *allocateFor(LineAddr la, AccessOutcome &outcome);

    /** Issue the victim's Flush per the table.  False if its push did
     *  not converge (the victim keeps its state and data). */
    bool evict(CacheLine &victim, AccessOutcome &outcome);

    /** Fault-degraded handling of a snooped event with no table cell:
     *  count it, warn once, and respond as if the address cycle was
     *  missed (empty reply, no latched action). */
    SnoopReply ignoredIllegalSnoop(State s, BusEvent ev, LineAddr la);

    /** Cache-bypass accesses used while quarantined (the non-caching
     *  master's transaction shapes). */
    AccessOutcome bypassRead(Addr addr);
    AccessOutcome bypassWrite(Addr addr, Word value);

    /**
     * Every consistency-state change funnels through here so the
     * bus's snoop-filter presence bitmask tracks valid<->invalid
     * transitions exactly.
     */
    void setLineState(CacheLine &line, State next);

    /**
     * Candidates of a cell filtered by this client's kind.  Returns a
     * reference to a per-cache scratch vector (valid until the next
     * call; callers copy their chosen action before any recursion).
     */
    const std::vector<LocalAction> &kindFiltered(const LocalCell &cell);

    /**
     * Memoized action resolution.  With a deterministic chooser the
     * resolved action is a pure function of (state, event) - the
     * table, kind and policy are fixed at construction - so the first
     * resolution of each pair is cached and the hot path skips the
     * kind filter, table walk and virtual chooser dispatch.  Stateful
     * choosers (random action selection) disable memoization.
     */
    struct LocalMemo
    {
        bool filled = false;
        bool empty = false;    ///< "--" cell: no legal action
        LocalAction action;
    };
    struct SnoopMemo
    {
        bool filled = false;
        bool empty = false;    ///< no cell; tolerated under faults
        SnoopAction action;
        /** Invalidate alternative for the section 5.2 near-replacement
         *  discard, if the cell offers one (points into the table). */
        const SnoopAction *discardAlt = nullptr;
    };
    void fillLocalMemo(LocalMemo &m, State s, LocalEvent ev);

    void fillSnoopMemo(SnoopMemo &m, State s, BusEvent ev);

    /**
     * Pre-resolved hit plan for the devirtualized fast path: for a
     * (state, Read/Write) pair whose memoized action completes purely
     * locally with an unconditional valid next state, read()/write()
     * skip dispatch entirely - one packed-tag lookup, the data word,
     * a state-mirror update when the state moves (E->M) and the
     * replacement touch.  Anything else falls through to the generic
     * table-driven path.
     */
    struct HitPlan
    {
        bool filled = false;
        bool pure = false;
        State next = State::I;
    };
    void fillHitPlan(HitPlan &p, bool is_write, State s);
    /** Recompute fastLocal_ from chooser/store/coverage/quarantine. */
    void updateFastPath();

    LocalMemo &localMemoFor(State s, LocalEvent ev)
    {
        LocalMemo &m =
            localMemo_[static_cast<int>(s)][static_cast<int>(ev)];
        if (!m.filled)
            fillLocalMemo(m, s, ev);
        return m;
    }

    SnoopMemo &snoopMemoFor(State s, BusEvent ev)
    {
        SnoopMemo &m =
            snoopMemo_[static_cast<int>(s)][static_cast<int>(ev)];
        if (!m.filled)
            fillSnoopMemo(m, s, ev);
        return m;
    }

    /**
     * Line-store lookups funnel through a one-entry pointer cache:
     * one access probes the same line several times (hit check,
     * dispatch, execute; snoop then commit), and every probe through
     * the LineStore interface is a virtual call.  Line storage is
     * stable (both stores size their arrays at construction), and the
     * valid + tag revalidation keeps a recycled frame from lying.
     */
    CacheLine *cachedFind(LineAddr la)
    {
        CacheLine *l = lastLine_;
        if (l && l->valid() && l->addr == la)
            return l;
        l = store_->find(la);
        if (l)
            lastLine_ = l;
        return l;
    }

    const CacheLine *cachedPeek(LineAddr la) const
    {
        const CacheLine *l = lastLine_;
        if (l && l->valid() && l->addr == la)
            return l;
        l = store_->peek(la);
        if (l)
            lastLine_ = const_cast<CacheLine *>(l);
        return l;
    }

    // lineBytes_ is a power of two (the store's geometry validates
    // it), so per-access address splitting is shift/mask.
    LineAddr lineOf(Addr addr) const { return addr >> lineShift_; }
    std::size_t wordIndexOf(Addr addr) const
    { return (addr & (lineBytes_ - 1)) / kWordBytes; }

    MasterId id_;
    Bus &bus_;
    const ProtocolTable &table_;
    std::unique_ptr<ActionChooser> chooser_;
    ClientKind kind_;
    bool discardNearReplacement_;
    std::size_t lineBytes_;
    unsigned lineShift_ = 0;
    std::unique_ptr<LineStore> store_;
    /** store_ downcast when it is the conventional store; the hot hit
     *  path then bypasses the LineStore virtual interface. */
    PlainLineStore *plain_ = nullptr;
    /** True when the devirtualized hit path may run: deterministic
     *  chooser (plans are pure), plain store, no coverage recorder,
     *  not quarantined. */
    bool fastLocal_ = false;
    CacheStats stats_;
    bool quarantined_ = false;
    bool faultTolerant_ = false;
    bool warnedIllegalSnoop_ = false;   ///< one warning per cache
    TransitionCoverage *coverage_ = nullptr;
    std::string name_;
    std::vector<LocalAction> candScratch_;   ///< kindFiltered() reuse
    bool memoize_ = false;   ///< chooser_->deterministic()
    LocalMemo localMemo_[kNumStates][kNumLocalEvents];
    SnoopMemo snoopMemo_[kNumStates][kNumBusEvents];
    HitPlan readHit_[kNumStates];
    HitPlan writeHit_[kNumStates];
    mutable CacheLine *lastLine_ = nullptr;   ///< cachedFind/cachedPeek

    /** Latched snoop decision between snoop() and commit(). */
    struct Pending
    {
        bool active = false;
        bool isPush = false;       ///< CH-only response to a push
        SnoopAction action;
        CacheLine *line = nullptr;
    };
    Pending pending_;
};

} // namespace fbsim

#endif // FBSIM_PROTOCOLS_SNOOPING_CACHE_H_
