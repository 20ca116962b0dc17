#include "bus/bus.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/latency.h"

namespace fbsim {

Bus::Bus(MemorySlave &slave, const BusCostModel &cost,
         unsigned max_retries)
    : slave_(slave), cost_(cost), maxRetries_(max_retries)
{
}

void
Bus::addTraceSink(TraceSink *sink)
{
    fbsim_assert(sink != nullptr);
    sinks_.push_back(sink);
}

void
Bus::attach(Snooper *snooper)
{
    fbsim_assert(snooper != nullptr);
    for (const Snooper *s : snoopers_)
        fbsim_assert(s->snooperId() != snooper->snooperId());
    snoopers_.push_back(snooper);
    // Filterable snoopers get one presence bit each; once the mask
    // width is exhausted the overflow modules are simply never
    // filtered (correct, just not fast).
    std::uint64_t bit = 0;
    if (snooper->filterable() && nextBit_ != 0) {
        bit = nextBit_;
        nextBit_ <<= 1;
        bitOfId_.emplace(snooper->snooperId(), bit);
    }
    snooperBit_.push_back(bit);
    snooperId_.push_back(snooper->snooperId());
    snooperSuspended_.push_back(0);
}

void
Bus::setSnooperSuspended(MasterId id, bool suspended)
{
    for (std::size_t i = 0; i < snooperId_.size(); ++i) {
        if (snooperId_[i] == id) {
            snooperSuspended_[i] = suspended ? 1 : 0;
            return;
        }
    }
}

void
Bus::notePresence(MasterId id, LineAddr la, bool holds)
{
    auto it = bitOfId_.find(id);
    if (it == bitOfId_.end())
        return;
    if (holds) {
        presence_[la] |= it->second;
    } else if (std::uint64_t *mask = presence_.find(la)) {
        *mask &= ~it->second;
        if (*mask == 0)
            presence_.erase(la);
    }
}

void
Bus::clearPresence(MasterId id)
{
    auto it = bitOfId_.find(id);
    if (it == bitOfId_.end())
        return;
    std::uint64_t bit = it->second;
    // Collect first: erase must not run under the map's own iteration.
    std::vector<LineAddr> touched;
    presence_.forEach([&](LineAddr la, std::uint64_t mask) {
        if (mask & bit)
            touched.push_back(la);
    });
    for (LineAddr la : touched) {
        std::uint64_t *mask = presence_.find(la);
        *mask &= ~bit;
        if (*mask == 0)
            presence_.erase(la);
    }
}

std::vector<Word>
Bus::acquireLineBuffer()
{
    if (linePool_.empty())
        return std::vector<Word>(slave_.wordsPerLine());
    std::vector<Word> buf = std::move(linePool_.back());
    linePool_.pop_back();
    return buf;
}

void
Bus::recycleLineBuffer(std::vector<Word> &&buf)
{
    if (buf.capacity() < slave_.wordsPerLine())
        return;
    // The pool never needs more buffers than the deepest transaction
    // nesting; a small cap keeps stray donations from accumulating.
    if (linePool_.size() >= 8)
        return;
    linePool_.push_back(std::move(buf));
}

Bus::AttemptScratch &
Bus::scratchFor(unsigned depth)
{
    while (scratch_.size() <= depth)
        scratch_.push_back(std::make_unique<AttemptScratch>());
    return *scratch_[depth];
}

BusResult
Bus::execute(const BusRequest &req_in)
{
    std::optional<BusEvent> ev = classifyBusEvent(req_in.cmd, req_in.sig);
    fbsim_assert(ev.has_value());
    fbsim_assert(depth_ < 4);
    // Stamp the classified event once; every snooper reads it from the
    // request instead of re-deriving it per module.
    BusRequest req = req_in;
    req.event = *ev;

    // Nested abort pushes share the outer transaction's schedule tick.
    if (faults_ && depth_ == 0)
        faults_->beginTransaction();

    BusResult result;
    Cycles backoff_total = 0;
    for (unsigned round = 0; round <= maxRetries_; ++round) {
        bool aborted = false;
        BusResult attempt_result = attempt(req, aborted);
        result.cost += attempt_result.cost;
        if (aborted) {
            result.aborts += 1;
            // Exponential backoff before re-arbitrating (no-op with
            // the default retryBackoffBase of 0).
            Cycles backoff = cost_.backoffCost(result.aborts);
            result.cost += backoff;
            backoff_total += backoff;
            stats_.backoffCycles += backoff;
        }
        if (!aborted) {
            result.resp = attempt_result.resp;
            result.line = std::move(attempt_result.line);
            result.suppliedByCache = attempt_result.suppliedByCache;

            ++stats_.transactions;
            stats_.busyCycles += result.cost;
            switch (req.cmd) {
              case BusCmd::Read:
                ++stats_.reads;
                if (req.sig.im)
                    ++stats_.readsForModify;
                stats_.dataWords += result.line.size();
                if (result.suppliedByCache)
                    ++stats_.interventions;
                break;
              case BusCmd::WriteWord:
                ++stats_.wordWrites;
                if (req.sig.bc)
                    ++stats_.broadcastWrites;
                if (result.resp.di)
                    ++stats_.writeCaptures;
                stats_.dataWords += 1;
                break;
              case BusCmd::WriteLine:
                ++stats_.linePushes;
                stats_.dataWords += slave_.wordsPerLine();
                break;
              case BusCmd::AddrOnly:
                ++stats_.invalidates;
                break;
              case BusCmd::Sync:
                ++stats_.syncs;
                break;
            }
            // Latency is a top-level, per-master story; a nested
            // abort push bills the transaction that triggered it.
            if (latency_ && depth_ == 0)
                latency_->recordService(req.master, result.cost,
                                        result.aborts, backoff_total);
            if (!sinks_.empty()) {
                // busyCycles was just advanced by this transaction's
                // cost, so its service began cost cycles ago.
                const Cycles start = stats_.busyCycles - result.cost;
                for (TraceSink *sink : sinks_)
                    sink->onBusTransaction(req, result, start);
            }
            return result;
        }
        ++stats_.aborts;
    }
    ++stats_.retryExhausted;
    if (faults_) {
        // Injected faults make exhaustion a legal outcome: give up
        // coherently (no attempt changed any state) and let the master
        // surface a faulted access to the watchdog.
        fbsim_warn("bus transaction for line %llu gave up after %u "
                   "retries %s",
                   static_cast<unsigned long long>(req.line),
                   maxRetries_, faults_->describe().c_str());
        for (TraceSink *sink : sinks_) {
            sink->onInstant("retry-exhausted", kTraceFaultPid,
                            req.master, stats_.busyCycles,
                            faults_->describe());
        }
        result.converged = false;
        return result;
    }
    fbsim_panic("bus transaction for line %llu did not converge after "
                "%u retries",
                static_cast<unsigned long long>(req.line), maxRetries_);
}

BusResult
Bus::attempt(const BusRequest &req, bool &aborted)
{
    BusResult result;
    ++stats_.addressCycles;

    // Phase 1: broadcast address cycle; gather wired-OR responses.
    // Every attached module other than the master participates - but
    // with the snoop filter on, a filterable module whose presence bit
    // is clear cannot hold the line, so its (empty) response is known
    // without asking.  Scratch is per nesting depth: an abort push
    // nested inside this attempt runs its own attempt on this bus.
    AttemptScratch &scratch = scratchFor(depth_);
    scratch.participants.clear();
    scratch.chFlags.clear();
    std::uint64_t mask = ~std::uint64_t{0};
    if (filterEnabled_) {
        const std::uint64_t *m = presence_.find(req.line);
        mask = m ? *m : 0;
    }
    // The wired-OR reduction runs on packed response bytes - one OR
    // per snooper - and unpacks once when the address cycle ends.
    std::uint8_t wired_bits = 0;
    Snooper *di_owner = nullptr;
    Snooper *bs_owner = nullptr;
    unsigned ch_count = 0;
    std::uint64_t suppressed = 0;
    for (std::size_t i = 0; i < snoopers_.size(); ++i) {
        Snooper *s = snoopers_[i];
        if (snooperId_[i] == req.master)
            continue;
        // A withdrawn (quarantined) board is absent from the
        // backplane: no snoop, no response, not even a filter
        // suppression - it simply is not there.
        if (snooperSuspended_[i])
            continue;
        std::uint64_t bit = snooperBit_[i];
        if (bit != 0 && (mask & bit) == 0) {
            ++suppressed;
            if (crossCheck_ && s->holdsLine(req.line)) {
                fbsim_panic("snoop filter suppressed module %u which "
                            "holds line %llu",
                            s->snooperId(),
                            static_cast<unsigned long long>(req.line));
            }
            continue;
        }
        // Intermittently unresponsive snooper: the module misses this
        // address cycle entirely - no response, no latched transition.
        // Only filterable snoopers (caches) can be muted; bridges have
        // snoop side effects whose loss the model cannot express.
        if (faults_ && bit != 0 && faults_->fireMute(snooperId_[i]))
            continue;
        SnoopReply reply = s->snoop(req);
        wired_bits |= reply.resp.bits();
        if (reply.resp.di) {
            // Ownership is unique, so at most one module intervenes.
            // Under fault injection a muted invalidate can leave two
            // modules believing they own a line; keep the first
            // responder (deterministic attach order), count the
            // conflict, and rely on the always-on checker to report
            // the divergence itself.  Without an injector a double
            // assertion is a protocol bug and stays fatal.
            if (di_owner == nullptr) {
                di_owner = s;
            } else if (faults_) {
                ++stats_.responseConflicts;
            } else {
                fbsim_panic("modules %u and %u both intervened on line "
                            "%llu",
                            di_owner->snooperId(), s->snooperId(),
                            static_cast<unsigned long long>(req.line));
            }
        }
        if (reply.resp.bs) {
            if (bs_owner == nullptr) {
                bs_owner = s;
            } else if (faults_) {
                // Both busy modules want to push; serve the first now.
                // The loser is re-snooped on the retry round, asserts
                // BS again and pushes then.
                ++stats_.responseConflicts;
            } else {
                fbsim_panic("modules %u and %u both asserted BS on "
                            "line %llu",
                            bs_owner->snooperId(), s->snooperId(),
                            static_cast<unsigned long long>(req.line));
            }
        }
        ch_count += reply.resp.ch ? 1 : 0;
        scratch.participants.push_back(s);
        scratch.chFlags.push_back(reply.resp.ch ? 1 : 0);
    }
    filterStats_.snoopsSuppressed += suppressed;
    filterStats_.snoopsInvoked += scratch.participants.size();
    ResponseSignals wired = ResponseSignals::fromBits(wired_bits);

    // Phase 2: abort if anyone is busy; the owner pushes and we retry.
    if (bs_owner) {
        aborted = true;
        result.cost = cost_.addrCycles + cost_.abortPenalty;
        ++depth_;
        bs_owner->performAbortPush(req);
        --depth_;
        return result;
    }
    // Spurious BS (a glitch on the busy line): the attempt aborts with
    // no owner and thus no push; the master simply retries.  Checked
    // after the genuine-owner abort so a storm cannot mask a real push.
    if (faults_ && faults_->fireSpuriousAbort(req.line)) {
        aborted = true;
        result.cost = cost_.addrCycles + cost_.abortPenalty;
        ++stats_.spuriousAborts;
        return result;
    }
    aborted = false;
    // Wired-OR glitch: one of CH/DI/SL inverted as latched by the
    // participants.  Flipping DI can only *set* it here when no module
    // owns the line, so di_owner stays null and memory supplies the
    // data - exactly the failure mode where a reader sees stale data
    // that the checker's value oracle must catch.
    if (faults_)
        wired = faults_->corruptResponse(wired);

    // Phase 3: data transfer.  A local intervening owner supplies (or
    // captures) the data; the slave participates in every transaction
    // that did not come down through a bridge, both to move data and
    // to propagate coherence actions and CH responses across buses.
    bool from_cache = false;
    SlaveResult sres;
    if (req.cmd == BusCmd::Read) {
        result.line = acquireLineBuffer();
        fbsim_assert(result.line.size() == slave_.wordsPerLine());
        if (di_owner) {
            di_owner->supplyLine(req, result.line);
            from_cache = true;
        } else if (req.fromBridge) {
            // A down-forwarded read with no local owner has no data
            // phase on this bus (the requester above already has the
            // memory copy); hand back a defined, zeroed line.  Every
            // other path overwrites the full buffer: supplyLine and
            // the memory slave both copy wordsPerLine words.
            std::fill(result.line.begin(), result.line.end(), Word{0});
        }
    }
    if (!req.fromBridge) {
        sres = slave_.transact(req, di_owner != nullptr, wired.ch,
                               result.line);
        if (sres.dropped) {
            // The slave's read response was lost in flight: the
            // handshake times out and the attempt turns into an abort
            // round (no snooper commits, the master retries).  The
            // master paid the full memory latency waiting for data
            // that never arrived.
            recycleLineBuffer(std::move(result.line));
            result.line.clear();
            aborted = true;
            ++stats_.droppedResponses;
            result.cost = cost_.addrCycles + cost_.memLatency +
                          cost_.abortPenalty;
            return result;
        }
        wired = wired | sres.resp;
    }
    result.suppliedByCache = from_cache;

    // Phase 4: commit.  Each snooper resolves CH-conditional results
    // against the OR of the *other* modules' CH (itself excluded),
    // including retention signalled from beyond this bus.  With the
    // total CH count in hand this is one subtraction per snooper.
    bool external_ch = sres.resp.ch || req.chHint;
    for (std::size_t i = 0; i < scratch.participants.size(); ++i) {
        bool others_ch =
            external_ch || ch_count > (scratch.chFlags[i] ? 1u : 0u);
        scratch.participants[i]->commit(req, others_ch);
    }

    result.resp = wired;
    result.cost = cost_.attemptCost(req.cmd, req.sig,
                                    slave_.wordsPerLine(), from_cache);
    // A bridged slave reports the cycles spent on the buses above;
    // they replace the local-memory latency already included.
    if (sres.cost > 0) {
        Cycles assumed = (req.cmd == BusCmd::Read && !from_cache)
                             ? cost_.memLatency
                             : 0;
        result.cost = result.cost - assumed + sres.cost;
    }
    result.cost += sres.extraDelay;
    return result;
}

} // namespace fbsim
