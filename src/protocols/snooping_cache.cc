#include "protocols/snooping_cache.h"

#include <bit>

#include "common/logging.h"

namespace fbsim {

SnoopingCache::SnoopingCache(MasterId id, Bus &bus,
                             const ProtocolTable &table,
                             std::unique_ptr<ActionChooser> chooser,
                             const SnoopingCacheConfig &config)
    : SnoopingCache(id, bus, table, std::move(chooser),
                    std::make_unique<PlainLineStore>(config.geometry,
                                                     config.replacement,
                                                     config.seed),
                    config.geometry.lineBytes, config.kind,
                    config.discardNearReplacement)
{
}

SnoopingCache::SnoopingCache(MasterId id, Bus &bus,
                             const ProtocolTable &table,
                             std::unique_ptr<ActionChooser> chooser,
                             std::unique_ptr<LineStore> store,
                             std::size_t line_bytes, ClientKind kind,
                             bool discard_near_replacement)
    : id_(id), bus_(bus), table_(table), chooser_(std::move(chooser)),
      kind_(kind), discardNearReplacement_(discard_near_replacement),
      lineBytes_(line_bytes), store_(std::move(store))
{
    fbsim_assert(chooser_ != nullptr);
    fbsim_assert(store_ != nullptr);
    fbsim_assert(kind_ != ClientKind::NonCaching);
    fbsim_assert(store_->wordsPerLine() == bus_.wordsPerLine());
    fbsim_assert(lineBytes_ / kWordBytes == store_->wordsPerLine());
    fbsim_assert((lineBytes_ & (lineBytes_ - 1)) == 0);
    lineShift_ = static_cast<unsigned>(std::countr_zero(lineBytes_));
    memoize_ = chooser_->deterministic();
    plain_ = dynamic_cast<PlainLineStore *>(store_.get());
    updateFastPath();
    name_ = table_.name();
    if (kind_ == ClientKind::WriteThrough)
        name_ += " (write-through)";
    std::vector<std::string> problems = table_.validate();
    if (!problems.empty())
        fbsim_fatal("protocol table invalid: %s", problems[0].c_str());
}

const char *
SnoopingCache::protocolName() const
{
    return name_.c_str();
}

const std::vector<LocalAction> &
SnoopingCache::kindFiltered(const LocalCell &cell)
{
    candScratch_.clear();
    for (const LocalAction &a : cell) {
        if (a.kinds & kindBit(kind_))
            candScratch_.push_back(a);
    }
    return candScratch_;
}

void
SnoopingCache::fillLocalMemo(LocalMemo &m, State s, LocalEvent ev)
{
    const std::vector<LocalAction> &candidates =
        kindFiltered(table_.local(s, ev));
    m.empty = candidates.empty();
    if (!m.empty)
        m.action = chooser_->chooseLocal(kind_, s, ev, candidates);
    m.filled = true;
}

void
SnoopingCache::fillSnoopMemo(SnoopMemo &m, State s, BusEvent ev)
{
    const SnoopCell &cell = table_.snoop(s, ev);
    if (cell.empty()) {
        if (faultTolerant_) {
            m.empty = true;
            m.filled = true;
            return;
        }
        fbsim_panic("%s cache %u: illegal bus event col %d on line "
                    "in state %s",
                    name_.c_str(), id_, busEventColumn(ev),
                    std::string(stateName(s)).c_str());
    }
    m.action = chooser_->chooseSnoop(kind_, s, ev, cell);
    for (const SnoopAction &alt : cell) {
        if (alt.next == toState(State::I) && !alt.bs) {
            m.discardAlt = &alt;
            break;
        }
    }
    m.filled = true;
}

void
SnoopingCache::setLineState(CacheLine &line, State next)
{
    bool was = isValid(line.state);
    bool now = isValid(next);
    store_->setState(line, next);
    if (was != now)
        bus_.notePresence(id_, line.addr, now);
}

void
SnoopingCache::updateFastPath()
{
    fastLocal_ =
        memoize_ && plain_ != nullptr && coverage_ == nullptr &&
        !quarantined_;
}

void
SnoopingCache::fillHitPlan(HitPlan &p, bool is_write, State s)
{
    const LocalMemo &m = localMemoFor(
        s, is_write ? LocalEvent::Write : LocalEvent::Read);
    p.pure = false;
    if (!m.empty && !m.action.usesBus && !m.action.readThenWrite &&
        !m.action.next.conditional()) {
        State ns = m.action.next.resolve(false);
        // A hit that silently drops the line (ns == I) must take the
        // generic path (eviction counting, presence update); a read
        // that changes state at all is equally out of scope.  A pure
        // write must also be silentWrite(), so the timed engine's
        // fused hit never executes a reference the interleaved
        // schedule would send to arbitration, whatever the table says.
        if (isValid(ns) && (is_write ? silentWrite(s) : ns == s)) {
            p.pure = true;
            p.next = ns;
        }
    }
    p.filled = true;
}

AccessOutcome
SnoopingCache::read(Addr addr)
{
    if (fastLocal_) {
        // Devirtualized hit path: packed-tag lookup, pre-resolved
        // plan.  Pure read hits never change state, so only the data
        // word and the replacement touch happen.
        AccessOutcome o;
        if (tryLocalRead(addr, o.value))
            return o;
    }
    ++stats_.reads;
    if (quarantined_) {
        ++stats_.readMisses;
        return bypassRead(addr);
    }
    // Every protocol table serves a read on a valid line locally, so a
    // read used the bus iff it missed; no separate state probe needed.
    AccessOutcome outcome = dispatchLocal(LocalEvent::Read, addr, 0, 0);
    if (outcome.faulted)
        ++stats_.faultedAccesses;
    if (outcome.usedBus)
        ++stats_.readMisses;
    else
        ++stats_.readHits;
    return outcome;
}

AccessOutcome
SnoopingCache::write(Addr addr, Word value)
{
    if (fastLocal_) {
        // Devirtualized hit path via the fused probe.
        if (tryLocalWrite(addr, value)) {
            AccessOutcome o;
            o.value = value;
            return o;
        }
    }
    ++stats_.writes;
    if (quarantined_) {
        ++stats_.writeMisses;
        return bypassWrite(addr, value);
    }
    bool present = isValid(lineState(addr));
    AccessOutcome outcome = dispatchLocal(LocalEvent::Write, addr, value, 0);
    if (outcome.faulted)
        ++stats_.faultedAccesses;
    if (!present)
        ++stats_.writeMisses;
    else if (outcome.usedBus)
        ++stats_.writeSharedBus;
    else
        ++stats_.writeHits;
    return outcome;
}

AccessOutcome
SnoopingCache::flush(Addr addr, bool keep_copy)
{
    if (quarantined_)
        return {};
    AccessOutcome outcome =
        dispatchLocal(keep_copy ? LocalEvent::Pass : LocalEvent::Flush,
                      addr, 0, 0);
    if (outcome.faulted)
        ++stats_.faultedAccesses;
    return outcome;
}

AccessOutcome
SnoopingCache::bypassRead(Addr addr)
{
    BusRequest req;
    req.master = id_;
    req.cmd = BusCmd::Read;
    req.sig = {false, false, false};   // "I,R**": no CA asserted
    req.line = lineOf(addr);
    BusResult r = bus_.execute(req);
    AccessOutcome outcome;
    outcome.usedBus = true;
    outcome.busTransactions = 1;
    outcome.busCycles = r.cost;
    if (!r.converged) {
        outcome.faulted = true;
        ++stats_.faultedAccesses;
        return outcome;
    }
    outcome.value = r.line[wordIndexOf(addr)];
    bus_.recycleLineBuffer(std::move(r.line));
    return outcome;
}

AccessOutcome
SnoopingCache::bypassWrite(Addr addr, Word value)
{
    BusRequest req;
    req.master = id_;
    req.cmd = BusCmd::WriteWord;
    req.sig = {false, true, false};    // "I,IM,W**"
    req.line = lineOf(addr);
    req.wordIdx = wordIndexOf(addr);
    req.wdata = value;
    BusResult r = bus_.execute(req);
    AccessOutcome outcome;
    outcome.usedBus = true;
    outcome.busTransactions = 1;
    outcome.busCycles = r.cost;
    outcome.value = value;
    if (!r.converged) {
        outcome.faulted = true;
        ++stats_.faultedAccesses;
    }
    return outcome;
}

AccessOutcome
SnoopingCache::dispatchLocal(LocalEvent ev, Addr addr, Word value,
                             int depth)
{
    fbsim_assert(depth < 3);
    LineAddr la = lineOf(addr);
    CacheLine *line = cachedFind(la);
    State s = line ? line->state : State::I;

    LocalAction chosen;
    const LocalAction *action = &chosen;
    bool no_action;
    if (memoize_) {
        const LocalMemo &m = localMemoFor(s, ev);
        no_action = m.empty;
        action = &m.action;
    } else {
        const std::vector<LocalAction> &candidates =
            kindFiltered(table_.local(s, ev));
        no_action = candidates.empty();
        if (!no_action) {
            chosen = chooser_->chooseLocal(kind_, s, ev, candidates);
            action = &chosen;
        }
    }
    if (no_action) {
        // The paper's "--" cells: a Pass/Flush of a line we do not hold
        // (or hold clean, for Pass) is simply a no-op at the API level.
        if (ev == LocalEvent::Pass || ev == LocalEvent::Flush)
            return {};
        fbsim_panic("%s: no legal action for state %s on local %s",
                    name_.c_str(), std::string(stateName(s)).c_str(),
                    std::string(localEventName(ev)).c_str());
    }

    AccessOutcome outcome =
        executeLocal(*action, ev, addr, value, depth, line);
    if (coverage_)
        coverage_->noteLocal(s, ev, lineState(addr));
    return outcome;
}

AccessOutcome
SnoopingCache::executeLocal(const LocalAction &action, LocalEvent ev,
                            Addr addr, Word value, int depth,
                            CacheLine *line)
{
    LineAddr la = lineOf(addr);
    std::size_t wi = wordIndexOf(addr);
    AccessOutcome outcome;

    if (action.readThenWrite) {
        // Two transactions: a normal read (filling the line), then the
        // write dispatched on the new state.
        fbsim_assert(ev == LocalEvent::Write);
        AccessOutcome fill = dispatchLocal(LocalEvent::Read, addr, 0,
                                           depth + 1);
        if (fill.faulted) {
            // The fill gave up (fault injection); the line is still
            // invalid, so dispatching the write would just re-resolve
            // to this same read-then-write.  Fail the whole access.
            return fill;
        }
        AccessOutcome wr = dispatchLocal(LocalEvent::Write, addr, value,
                                         depth + 1);
        outcome.usedBus = fill.usedBus || wr.usedBus;
        outcome.busTransactions =
            fill.busTransactions + wr.busTransactions;
        outcome.busCycles = fill.busCycles + wr.busCycles;
        outcome.faulted = wr.faulted;
        outcome.value = wr.value;
        return outcome;
    }

    if (!action.usesBus) {
        // Purely local transition (hit, silent upgrade, silent drop).
        // The line was already located by dispatchLocal.
        fbsim_assert(line != nullptr);
        fbsim_assert(!action.next.conditional());
        if (ev == LocalEvent::Write)
            line->data[wi] = value;
        outcome.value = line->data[wi];
        State ns = action.next.resolve(false);
        if (line->state != State::I && ns == State::I)
            ++stats_.evictions;
        setLineState(*line, ns);
        if (isValid(ns))
            store_->touch(*line);
        return outcome;
    }

    BusRequest req;
    req.master = id_;
    req.cmd = action.cmd;
    req.sig = {action.ca, action.im, action.bc};
    req.line = la;
    req.wordIdx = wi;
    req.wdata = value;

    switch (action.cmd) {
      case BusCmd::Read: {
        // Fill (plain read miss or read-for-ownership).  Make room
        // first: the victim's push precedes our fill on the bus.
        CacheLine *nl = allocateFor(la, outcome);
        if (!nl) {
            // The victim's writeback gave up (fault injection); its
            // frame is still occupied, so the fill cannot proceed.
            outcome.faulted = true;
            return outcome;
        }
        BusResult r = bus_.execute(req);
        outcome.usedBus = true;
        outcome.busTransactions += 1;
        outcome.busCycles += r.cost;
        if (!r.converged) {
            // No data arrived and no snooper changed state; the frame
            // stays invalid and the access fails.
            outcome.faulted = true;
            return outcome;
        }
        // Swap the filled buffer in and donate our old storage back
        // to the bus pool: steady-state fills never allocate.
        nl->data.swap(r.line);
        bus_.recycleLineBuffer(std::move(r.line));
        setLineState(*nl, action.next.resolve(r.resp.ch));
        store_->touch(*nl);
        if (r.suppliedByCache)
            ++stats_.dirtyFills;
        if (ev == LocalEvent::Write && isValid(nl->state))
            nl->data[wi] = value;
        outcome.value = nl->data[wi];
        return outcome;
      }

      case BusCmd::WriteWord: {
        // Write-through or broadcast update of one word.
        BusResult r = bus_.execute(req);
        outcome.usedBus = true;
        outcome.busTransactions = 1;
        outcome.busCycles = r.cost;
        outcome.value = value;
        if (!r.converged) {
            // The word never reached the bus; local state unchanged.
            outcome.faulted = true;
            return outcome;
        }
        CacheLine *line = cachedFind(la);
        if (line) {
            line->data[wi] = value;
            setLineState(*line, action.next.resolve(r.resp.ch));
            if (isValid(line->state))
                store_->touch(*line);
        }
        return outcome;
      }

      case BusCmd::WriteLine: {
        // Push (Pass keeps the copy, Flush discards it).
        CacheLine *line = cachedFind(la);
        fbsim_assert(line != nullptr);
        req.wline = line->data;
        BusResult r = bus_.execute(req);
        outcome.usedBus = true;
        outcome.busTransactions = 1;
        outcome.busCycles = r.cost;
        if (!r.converged) {
            // Memory never captured the line; keep state (and thus
            // ownership/data) so nothing is lost.
            outcome.faulted = true;
            return outcome;
        }
        ++stats_.writebacks;
        setLineState(*line, action.next.resolve(r.resp.ch));
        outcome.value = line->data[wi];
        return outcome;
      }

      case BusCmd::Sync:
        // Consistency commands are issued via System::syncLine, never
        // from a protocol table.
        break;

      case BusCmd::AddrOnly: {
        // Pure invalidate; our copy is current (it matches the owner,
        // by the shared-image invariant) so no data moves.
        CacheLine *line = cachedFind(la);
        fbsim_assert(line != nullptr);
        BusResult r = bus_.execute(req);
        outcome.usedBus = true;
        outcome.busTransactions = 1;
        outcome.busCycles = r.cost;
        if (!r.converged) {
            // Nobody saw the invalidate; the write must not land.
            outcome.faulted = true;
            return outcome;
        }
        if (ev == LocalEvent::Write)
            line->data[wi] = value;
        setLineState(*line, action.next.resolve(r.resp.ch));
        store_->touch(*line);
        outcome.value = line->data[wi];
        return outcome;
      }
    }
    fbsim_panic("unreachable");
}

CacheLine *
SnoopingCache::allocateFor(LineAddr la, AccessOutcome &outcome)
{
    // The store may demand several evictions (a sector cache replaces
    // a whole sector's subsectors at once).
    for (CacheLine *victim : store_->evictionSet(la)) {
        fbsim_assert(victim->valid());
        if (!evict(*victim, outcome)) {
            // The victim's writeback gave up (fault injection); it
            // still holds valid owned data, so installing over it
            // would lose the only copy.  Fail the allocation instead.
            outcome.faulted = true;
            return nullptr;
        }
    }
    return &store_->install(la, State::I);
}

bool
SnoopingCache::evict(CacheLine &victim, AccessOutcome &outcome)
{
    State s = victim.state;
    LocalAction chosen;
    const LocalAction *actionp = &chosen;
    bool no_action;
    if (memoize_) {
        const LocalMemo &m = localMemoFor(s, LocalEvent::Flush);
        no_action = m.empty;
        actionp = &m.action;
    } else {
        const std::vector<LocalAction> &candidates =
            kindFiltered(table_.local(s, LocalEvent::Flush));
        no_action = candidates.empty();
        if (!no_action) {
            chosen = chooser_->chooseLocal(kind_, s, LocalEvent::Flush,
                                           candidates);
        }
    }
    if (no_action) {
        // Unowned data may always be dropped silently.
        fbsim_assert(!isOwned(s));
        ++stats_.evictions;
        setLineState(victim, State::I);
        return true;
    }
    const LocalAction &action = *actionp;
    if (coverage_)
        coverage_->noteLocal(s, LocalEvent::Flush, State::I);
    if (!action.usesBus) {
        ++stats_.evictions;
        setLineState(victim, State::I);
        return true;
    }
    fbsim_assert(action.cmd == BusCmd::WriteLine);
    BusRequest req;
    req.master = id_;
    req.cmd = BusCmd::WriteLine;
    req.sig = {action.ca, action.im, action.bc};
    req.line = victim.addr;
    req.wline = victim.data;
    BusResult r = bus_.execute(req);
    outcome.usedBus = true;
    outcome.busTransactions += 1;
    outcome.busCycles += r.cost;
    if (!r.converged) {
        // Writeback gave up (fault injection): keep the victim's state
        // and data so the only copy is not lost.
        return false;
    }
    ++stats_.evictions;
    ++stats_.writebacks;
    setLineState(victim, State::I);
    return true;
}

SnoopReply
SnoopingCache::ignoredIllegalSnoop(State s, BusEvent ev, LineAddr la)
{
    // Fault-degraded: the protocol never generates this (state, event)
    // pair, so reaching it means an injected fault already diverged
    // the system (e.g. double ownership after a muted invalidate).
    // Respond as if the address cycle was missed; the always-on
    // checker reports the underlying divergence.
    ++stats_.illegalSnoops;
    if (!warnedIllegalSnoop_) {
        warnedIllegalSnoop_ = true;
        fbsim_warn("%s cache %u: ignoring illegal bus event col %d on "
                 "line %llu in state %s (fault-degraded; counted in "
                 "illegalSnoops)",
                 name_.c_str(), id_, busEventColumn(ev),
                 static_cast<unsigned long long>(la),
                 std::string(stateName(s)).c_str());
    }
    return {};
}

SnoopReply
SnoopingCache::snoop(const BusRequest &req)
{
    // Clearing the flags alone un-latches any previous decision; the
    // other fields are only read after a latch rewrites them.
    pending_.active = false;
    pending_.isPush = false;
    SnoopReply reply;

    CacheLine *line = cachedFind(req.line);
    if (!line)
        return reply;

    BusEvent ev = req.event;

    if (ev == BusEvent::Push) {
        // A push by the (unique) owner: holders signal retention via
        // CH so an O->E / CH:S/E pass resolves correctly, but no state
        // changes (their copies already match the owner's).
        reply.resp.ch = true;
        pending_.active = true;
        pending_.isPush = true;
        pending_.line = line;
        return reply;
    }

    if (ev == BusEvent::Sync) {
        // The section 6 consistency command.  Owners abort, push the
        // line to memory and demote to an unowned state; the retried
        // command then finds memory valid.  With IM asserted (purge)
        // every remaining holder invalidates; otherwise holders keep
        // their (now memory-consistent) copies.
        if (isOwned(line->state)) {
            SnoopAction action;
            action.bs = true;
            action.pushCa = true;
            action.pushState =
                line->state == State::M ? State::E : State::S;
            pending_.active = true;
            pending_.action = action;
            pending_.line = line;
            reply.resp.bs = true;
            return reply;
        }
        SnoopAction action;
        if (req.sig.im) {
            action.next = toState(State::I);
            action.ch = Tri::No;
        } else {
            action.next = toState(line->state);
            action.ch = Tri::Assert;
        }
        pending_.active = true;
        pending_.action = action;
        pending_.line = line;
        reply.resp.ch = action.ch == Tri::Assert;
        return reply;
    }

    SnoopAction chosen;
    const SnoopAction *action = &chosen;
    if (memoize_) {
        const SnoopMemo &m = snoopMemoFor(line->state, ev);
        if (m.empty)
            return ignoredIllegalSnoop(line->state, ev, req.line);
        action = &m.action;
        // Section 5.2 refinement: discard instead of update when the
        // line is nearing replacement and the cell offers an
        // invalidate.
        if (discardNearReplacement_ && m.discardAlt && !action->bs &&
            action->next.resolve(true) != State::I &&
            (ev == BusEvent::BroadcastWriteCache ||
             ev == BusEvent::BroadcastWriteNoCache) &&
            !isOwned(line->state) && store_->nearReplacement(*line)) {
            action = m.discardAlt;
        }
    } else {
        const SnoopCell &cell = table_.snoop(line->state, ev);
        if (cell.empty()) {
            if (faultTolerant_)
                return ignoredIllegalSnoop(line->state, ev, req.line);
            fbsim_panic("%s cache %u: illegal bus event col %d on line "
                        "in state %s",
                        name_.c_str(), id_, busEventColumn(ev),
                        std::string(stateName(line->state)).c_str());
        }

        chosen = chooser_->chooseSnoop(kind_, line->state, ev, cell);

        // Section 5.2 refinement (as above).
        if (discardNearReplacement_ && !chosen.bs &&
            chosen.next.resolve(true) != State::I &&
            (ev == BusEvent::BroadcastWriteCache ||
             ev == BusEvent::BroadcastWriteNoCache) &&
            !isOwned(line->state) && store_->nearReplacement(*line)) {
            for (const SnoopAction &alt : cell) {
                if (alt.next == toState(State::I) && !alt.bs) {
                    chosen = alt;
                    break;
                }
            }
        }
    }

    pending_.active = true;
    pending_.action = *action;
    pending_.line = line;
    reply.resp.ch = action->ch == Tri::Assert;
    reply.resp.di = action->di;
    reply.resp.sl = action->sl;
    reply.resp.bs = action->bs;
    return reply;
}

void
SnoopingCache::supplyLine(const BusRequest &req, std::span<Word> out)
{
    fbsim_assert(pending_.active && pending_.action.di);
    fbsim_assert(pending_.line && pending_.line->addr == req.line);
    fbsim_assert(out.size() == pending_.line->data.size());
    ++stats_.interventions;
    std::copy(pending_.line->data.begin(), pending_.line->data.end(),
              out.begin());
}

void
SnoopingCache::commit(const BusRequest &req, bool others_ch)
{
    if (!pending_.active)
        return;
    // No copy: commit never re-enters the bus, so pending_ cannot be
    // overwritten underneath us (unlike performAbortPush, which nests
    // a transaction that re-snoops this cache).
    pending_.active = false;
    if (pending_.isPush)
        return;

    CacheLine *line = pending_.line;
    fbsim_assert(line && line->addr == req.line);
    const SnoopAction &action = pending_.action;
    fbsim_assert(!action.bs);

    if (req.cmd == BusCmd::WriteWord && (action.di || action.sl)) {
        // Capture the written word: an owner absorbing a foreign write
        // (DI) or a holder snarfing a broadcast (SL).
        line->data[req.wordIdx] = req.wdata;
        if (action.di)
            ++stats_.writeCaptures;
        else
            ++stats_.updatesRecv;
    }

    State ns = action.next.resolve(others_ch);
    if (coverage_) {
        std::optional<BusEvent> ev = classifyBusEvent(req.cmd, req.sig);
        if (ev.has_value())
            coverage_->noteSnoop(line->state, *ev, ns);
    }
    if (line->state != State::I && ns == State::I)
        ++stats_.invalidationsRecv;
    setLineState(*line, ns);
}

void
SnoopingCache::performAbortPush(const BusRequest &req)
{
    fbsim_assert(pending_.active && pending_.action.bs);
    Pending p = pending_;
    pending_ = {};
    CacheLine *line = p.line;
    fbsim_assert(line && line->addr == req.line);
    fbsim_assert(isOwned(line->state));

    BusRequest push;
    push.master = id_;
    push.cmd = BusCmd::WriteLine;
    push.sig = {p.action.pushCa, false, false};
    push.line = line->addr;
    push.wline = line->data;
    BusResult r = bus_.execute(push);
    if (!r.converged) {
        // The nested push gave up (fault injection): keep ownership
        // and data; the outer transaction's next round aborts again
        // and re-triggers the push until one side succeeds or the
        // outer retry budget runs out.
        return;
    }
    ++stats_.abortPushes;
    ++stats_.writebacks;
    if (coverage_) {
        std::optional<BusEvent> ev = classifyBusEvent(req.cmd, req.sig);
        if (ev.has_value())
            coverage_->noteSnoop(line->state, *ev, p.action.pushState);
    }
    setLineState(*line, p.action.pushState);
}

AccessOutcome
SnoopingCache::quarantine()
{
    AccessOutcome outcome;
    if (quarantined_)
        return outcome;
    // Collect first: evict() invalidates through setLineState, which
    // must not run under the store's own iteration.
    std::vector<LineAddr> held;
    store_->forEachValidLine([&](const CacheLine &line) {
        held.push_back(line.addr);
    });
    for (LineAddr la : held) {
        CacheLine *line = cachedFind(la);
        if (!line)
            continue;   // invalidated by an earlier flush's snoop
        if (!evict(*line, outcome)) {
            // Even the quarantine flush could not converge.  Loud data
            // loss beats silent corruption: drop the copy and say so.
            fbsim_warn("cache %u quarantine: flush of line %llu did "
                     "not converge; owned data lost",
                     id_, static_cast<unsigned long long>(la));
            setLineState(*line, State::I);
        }
    }
    quarantined_ = true;
    updateFastPath();
    return outcome;
}

bool
SnoopingCache::reintegrate()
{
    if (!quarantined_)
        return false;
    // The quarantine flush already emptied the store and bypass mode
    // never refills it, but a rejoin must not *assume* that: bulk-
    // invalidate any residual copies (an epoch bump, O(1) in the
    // conventional store) and wipe this cache's snoop-filter presence
    // bits wholesale, so the bitmask ends exact no matter what
    // happened in between - without walking a single line.
    store_->bulkInvalidate();
    bus_.clearPresence(id_);
    pending_ = Pending{};
    lastLine_ = nullptr;
    quarantined_ = false;
    updateFastPath();
    return true;
}

std::optional<LineAddr>
SnoopingCache::corruptRandomBit(Rng &rng)
{
    std::vector<CacheLine *> victims;
    store_->forEachValidLine([&](const CacheLine &line) {
        victims.push_back(const_cast<CacheLine *>(&line));
    });
    if (victims.empty())
        return std::nullopt;
    CacheLine *victim = victims[rng.below(victims.size())];
    std::size_t wi = rng.below(victim->data.size());
    unsigned bit = static_cast<unsigned>(rng.below(kWordBytes * 8));
    victim->data[wi] ^= Word{1} << bit;
    return victim->addr;
}

} // namespace fbsim
