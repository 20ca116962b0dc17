#include "sim/system.h"

#include "common/logging.h"

namespace fbsim {

namespace {

/** Cap on recorded violations; property sweeps run far past the first
 *  inconsistency and must not grow this vector without bound. */
constexpr std::size_t kMaxRecordedViolations = 1000;

/** reintegrateDue_ sentinel: no reintegration scheduled. */
constexpr Cycles kNeverDue = ~static_cast<Cycles>(0);

} // namespace

System::System(const SystemConfig &config) : config_(config)
{
    std::size_t words = config_.lineBytes / kWordBytes;
    fbsim_assert(words > 0);
    memory_ = std::make_unique<MainMemory>(words);
    slave_ = std::make_unique<MainMemorySlave>(*memory_);
    bus_ = std::make_unique<Bus>(*slave_, config_.cost,
                                 config_.maxBusRetries);
    bus_->setSnoopFilterEnabled(config_.snoopFilter);
    bus_->setSnoopCrossCheck(config_.snoopFilterCrossCheck);
    checker_ =
        std::make_unique<CoherenceChecker>(*memory_, config_.lineBytes);
    // The checker observes completed transactions to maintain its
    // dirty-line set for incremental per-access scans; when nothing
    // will consume that set, skip the per-access bookkeeping.
    bus_->addTraceSink(checker_.get());
    checker_->setTrackDirty(config_.checkEveryAccess &&
                            config_.incrementalCheck);
    if (config_.faults && config_.faults->anyEnabled()) {
        faults_ = std::make_unique<FaultInjector>(*config_.faults);
        bus_->setFaultInjector(faults_.get());
        slave_->setFaultInjector(faults_.get());
        // Every checker message carries the injector's reproduction
        // tag: seed + schedule + transaction index.
        checker_->setAnnotator(
            [this]() { return faults_->describe(); });
    }
}

System::~System() = default;

void
System::attachTrace(TraceSink *sink)
{
    fbsim_assert(sink != nullptr);
    trace_ = sink;
    bus_->addTraceSink(sink);
}

void
System::checkProtocolMix(ProtocolKind kind)
{
    // The paper's compatibility claim covers the protocols that keep
    // ownership coherent through the O state or through memory
    // updates; Write-Once's through-to-memory first write collides
    // with a remote O-state owner (the WriteOnceOwnerCollision
    // data-loss class pinned in mixed_system_test).  Refuse the mix at
    // assembly time rather than let the checker find it at run time.
    auto owns = [](ProtocolKind k) {
        return k == ProtocolKind::Moesi || k == ProtocolKind::Berkeley ||
               k == ProtocolKind::Dragon;
    };
    if (!config_.allowIncompatibleMix) {
        for (ProtocolKind prev : stockKinds_) {
            const bool clash =
                (kind == ProtocolKind::WriteOnce && owns(prev)) ||
                (prev == ProtocolKind::WriteOnce && owns(kind));
            if (clash) {
                fbsim_fatal(
                    "incompatible protocol mix on one bus: %s + %s "
                    "(Write-Once's through-to-memory first write "
                    "collides with an O-state owner; set "
                    "SystemConfig::allowIncompatibleMix to assemble "
                    "anyway)",
                    std::string(protocolKindName(prev)).c_str(),
                    std::string(protocolKindName(kind)).c_str());
            }
        }
    }
    stockKinds_.push_back(kind);
}

MasterId
System::addCache(const CacheSpec &spec)
{
    MasterId id = static_cast<MasterId>(clients_.size());
    SnoopingCacheConfig cfg;
    cfg.geometry = {config_.lineBytes, spec.numSets, spec.assoc};
    cfg.kind = spec.writeThrough ? ClientKind::WriteThrough
                                 : ClientKind::CopyBack;
    cfg.discardNearReplacement = spec.discardNearReplacement;
    if (spec.writeThrough && !spec.table &&
        spec.protocol != ProtocolKind::Moesi)
        fbsim_fatal("write-through clients use the MOESI table's \"*\" "
                    "entries; pick ProtocolKind::Moesi");
    // Write-through clients never hold the O state (memory stays
    // current under them), so only copy-back stock tables join the
    // compatibility guard.
    if (!spec.table && !spec.writeThrough)
        checkProtocolMix(spec.protocol);

    const ProtocolTable &table =
        spec.table ? *spec.table : protocolTable(spec.protocol);
    auto chooser = spec.makeChooser
                       ? spec.makeChooser()
                       : makeChooser(spec.chooser, spec.policy,
                                     spec.seed);
    auto cache = std::make_unique<SnoopingCache>(
        id, *bus_, table, std::move(chooser), cfg);
    if (faults_)
        cache->setFaultTolerant(true);
    bus_->attach(cache.get());
    checker_->addCache(cache.get());
    caches_.push_back(cache.get());
    clients_.push_back(std::move(cache));
    noProgress_.push_back(0);
    tripsSinceJoin_.push_back(0);
    reintegrateDue_.push_back(kNeverDue);
    return id;
}

MasterId
System::addSectorCache(const CacheSpec &spec,
                       std::size_t subsectors_per_sector)
{
    MasterId id = static_cast<MasterId>(clients_.size());
    if (spec.writeThrough)
        fbsim_fatal("sector caches are copy-back in fbsim");
    checkProtocolMix(spec.protocol);
    SectorGeometry geom;
    geom.lineBytes = config_.lineBytes;
    geom.subsectorsPerSector = subsectors_per_sector;
    geom.numSets = spec.numSets;
    geom.assoc = spec.assoc;
    auto store = std::make_unique<SectorStore>(geom);
    auto cache = std::make_unique<SnoopingCache>(
        id, *bus_, protocolTable(spec.protocol),
        makeChooser(spec.chooser, spec.policy, spec.seed),
        std::move(store), config_.lineBytes, ClientKind::CopyBack,
        spec.discardNearReplacement);
    if (faults_)
        cache->setFaultTolerant(true);
    bus_->attach(cache.get());
    checker_->addCache(cache.get());
    caches_.push_back(cache.get());
    clients_.push_back(std::move(cache));
    noProgress_.push_back(0);
    tripsSinceJoin_.push_back(0);
    reintegrateDue_.push_back(kNeverDue);
    return id;
}

MasterId
System::addNonCachingMaster(bool broadcast_writes)
{
    MasterId id = static_cast<MasterId>(clients_.size());
    clients_.push_back(std::make_unique<NonCachingMaster>(
        id, *bus_, config_.lineBytes, broadcast_writes));
    caches_.push_back(nullptr);
    noProgress_.push_back(0);
    tripsSinceJoin_.push_back(0);
    reintegrateDue_.push_back(kNeverDue);
    return id;
}

BusClient &
System::client(MasterId id)
{
    fbsim_assert(id < clients_.size());
    return *clients_[id];
}

SnoopingCache *
System::cacheOf(MasterId id)
{
    fbsim_assert(id < caches_.size());
    return caches_[id];
}

const SnoopingCache *
System::cacheOf(MasterId id) const
{
    fbsim_assert(id < caches_.size());
    return caches_[id];
}

AccessOutcome
System::read(MasterId id, Addr addr)
{
    AccessOutcome outcome = client(id).read(addr);
    // Value verification is cheap and always on; the structural scan
    // only runs when configured.  The violation string is only built
    // on an actual mismatch - the match test is one oracle probe.  A
    // faulted read returned no data, so there is no value to verify
    // (and blaming a timing fault as corruption would be wrong).
    if (!outcome.faulted &&
        outcome.value != checker_->expected(addr)) {
        if (violations_.size() < kMaxRecordedViolations)
            violations_.push_back(
                checker_->noteRead(addr, outcome.value));
        // Failed data-integrity check: if the reader's own cache holds
        // the line valid, its array is the prime corruption suspect.
        if (config_.quarantineOnIntegrity && faults_) {
            SnoopingCache *cache = caches_[id];
            if (cache && isValid(cache->lineState(addr)))
                quarantine(id);
        }
    }
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
System::write(MasterId id, Addr addr, Word value)
{
    AccessOutcome outcome = client(id).write(addr, value);
    // A faulted write never reached the shared image; advancing the
    // oracle would charge the fault to every later reader.
    if (!outcome.faulted)
        checker_->noteWrite(addr, value);
    postAccess(id, outcome);
    return outcome;
}

void
System::recordReadMismatch(Addr addr, Word value)
{
    if (violations_.size() < kMaxRecordedViolations)
        violations_.push_back(checker_->noteRead(addr, value));
}

AccessOutcome
System::flush(MasterId id, Addr addr, bool keep_copy)
{
    AccessOutcome outcome = client(id).flush(addr, keep_copy);
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
System::readWords(MasterId id, Addr addr, std::span<Word> out)
{
    AccessOutcome total;
    for (std::size_t i = 0; i < out.size(); ++i) {
        AccessOutcome o = read(id, addr + i * kWordBytes);
        out[i] = o.value;
        total += o;
    }
    if (!out.empty())
        total.value = out[0];
    return total;
}

AccessOutcome
System::writeWords(MasterId id, Addr addr, std::span<const Word> values)
{
    AccessOutcome total;
    for (std::size_t i = 0; i < values.size(); ++i)
        total += write(id, addr + i * kWordBytes, values[i]);
    return total;
}

AccessOutcome
System::syncLine(MasterId id, Addr addr, bool purge)
{
    AccessOutcome total;
    // The issuer's own copy first: an owning issuer pushes locally
    // (Pass keeps the copy for a plain sync; Flush discards on purge);
    // unowned copies drop silently on purge.
    SnoopingCache *own = caches_[id];
    if (own && isValid(own->lineState(addr))) {
        bool keep = !purge;
        if (isOwned(own->lineState(addr)) || purge)
            total += own->flush(addr, keep);
    }
    // Then the bus command for everyone else.
    BusRequest req;
    req.master = id;
    req.cmd = BusCmd::Sync;
    req.sig = {false, purge, false};
    req.line = addr / config_.lineBytes;
    BusResult r = bus_->execute(req);
    total.usedBus = true;
    total.busTransactions += 1;
    total.busCycles += r.cost;
    if (!r.converged)
        total.faulted = true;
    postAccess(id, total);
    return total;
}

bool
System::wouldUseBus(MasterId id, bool is_write, Addr addr) const
{
    const SnoopingCache *cache = caches_[id];
    if (!cache)
        return true;   // non-caching masters always use the bus
    State s = cache->lineState(addr);
    if (!is_write)
        return s == State::I;
    // Write-through writes always go through; copy-back M and E
    // writes are silent; O, S and I need the bus.
    return !cache->silentWrite(s);
}

std::vector<std::string>
System::checkNow() const
{
    return checker_->checkInvariants();
}

void
System::afterAccess()
{
    std::vector<std::string> v = config_.incrementalCheck
                                     ? checker_->checkDirtyLines()
                                     : checker_->checkInvariants();
    for (std::string &s : v) {
        if (violations_.size() >= kMaxRecordedViolations)
            break;
        violations_.push_back(std::move(s));
    }
}

void
System::postAccess(MasterId id, const AccessOutcome &outcome)
{
    if (scheduledReintegrations_ > 0)
        serviceReintegrations();
    if (faults_) {
        if (outcome.faulted) {
            unsigned &rounds = noProgress_[id];
            if (++rounds >= config_.watchdogRounds) {
                ++watchdogTrips_;
                std::string msg = strprintf(
                    "watchdog: master %u made no forward progress over "
                    "%u consecutive faulted accesses %s",
                    id, rounds, faults_->describe().c_str());
                fbsim_warn("%s", msg.c_str());
                if (trace_)
                    trace_->onInstant("watchdog-trip", kTraceFaultPid,
                                      id, bus_->stats().busyCycles,
                                      msg);
                recordFaultEvent(std::move(msg));
                rounds = 0;
                // Escalation ladder: the bus already retried, the
                // watchdog has now tripped; only a master that keeps
                // tripping gets its board pulled.
                if (config_.quarantineOnWatchdog &&
                    ++tripsSinceJoin_[id] >= config_.quarantineAfterTrips)
                    quarantine(id);
            }
        } else {
            noProgress_[id] = 0;
        }
        maybeCorruptCache();
    }
    if (config_.checkEveryAccess)
        afterAccess();
}

void
System::serviceReintegrations()
{
    const Cycles now = bus_->stats().busyCycles;
    for (std::size_t id = 0; id < reintegrateDue_.size(); ++id) {
        if (reintegrateDue_[id] != kNeverDue &&
            now >= reintegrateDue_[id])
            reintegrate(static_cast<MasterId>(id));
    }
}

void
System::maybeCorruptCache()
{
    if (!faults_->shouldFlipData())
        return;
    // Victim selection comes from the data-flip stream itself, so the
    // whole fault - when and where - replays from the seed.
    std::vector<SnoopingCache *> candidates;
    for (SnoopingCache *cache : caches_) {
        if (cache && !cache->quarantined())
            candidates.push_back(cache);
    }
    if (candidates.empty())
        return;
    Rng &rng = faults_->dataFlipRng();
    SnoopingCache *victim = candidates[rng.below(candidates.size())];
    std::optional<LineAddr> la = victim->corruptRandomBit(rng);
    if (!la)
        return;
    faults_->noteDataFlip();
    // No bus transaction touched the line, so dirty it by hand for
    // the incremental scan.
    checker_->markLineDirty(*la);
    std::string msg = strprintf(
        "data flip: cache %u line 0x%llx %s", victim->clientId(),
        static_cast<unsigned long long>(*la),
        faults_->describe().c_str());
    if (trace_)
        trace_->onInstant("data-flip", kTraceFaultPid,
                          victim->clientId(), bus_->stats().busyCycles,
                          msg);
    recordFaultEvent(std::move(msg));
}

bool
System::quarantine(MasterId id)
{
    fbsim_assert(id < caches_.size());
    SnoopingCache *cache = caches_[id];
    if (!cache || cache->quarantined())
        return false;
    ++quarantines_;
    std::string msg = strprintf(
        "quarantine: cache %u flushed and isolated%s%s", id,
        faults_ ? " " : "",
        faults_ ? faults_->describe().c_str() : "");
    fbsim_warn("%s", msg.c_str());
    if (trace_)
        trace_->onInstant("quarantine", kTraceFaultPid, id,
                          bus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));
    // The flush still needs the bus and the other snoopers, so pull
    // the board only after quarantine() has drained it; from then on
    // the empty cache neither snoops nor is scanned by the checker.
    cache->quarantine();
    bus_->setSnooperSuspended(id, true);
    checker_->removeCache(cache);
    noProgress_[id] = 0;
    if (config_.reintegrateAfterCycles > 0 &&
        reintegrateDue_[id] == kNeverDue) {
        reintegrateDue_[id] =
            bus_->stats().busyCycles + config_.reintegrateAfterCycles;
        ++scheduledReintegrations_;
    }
    return true;
}

bool
System::reintegrate(MasterId id)
{
    fbsim_assert(id < caches_.size());
    SnoopingCache *cache = caches_[id];
    if (!cache || !cache->quarantined())
        return false;
    if (reintegrateDue_[id] != kNeverDue) {
        reintegrateDue_[id] = kNeverDue;
        --scheduledReintegrations_;
    }
    cache->reintegrate();
    checker_->addCache(cache);
    bus_->setSnooperSuspended(id, false);
    noProgress_[id] = 0;
    tripsSinceJoin_[id] = 0;   // the rejoined board starts a fresh ladder
    ++reintegrations_;
    std::string msg = strprintf(
        "reintegrate: cache %u rejoined with all lines invalid%s%s", id,
        faults_ ? " " : "",
        faults_ ? faults_->describe().c_str() : "");
    fbsim_warn("%s", msg.c_str());
    if (trace_)
        trace_->onInstant("reintegrate", kTraceFaultPid, id,
                          bus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));
    return true;
}

void
System::recordFaultEvent(std::string event)
{
    if (faultEvents_.size() < kMaxRecordedViolations)
        faultEvents_.push_back(std::move(event));
}

} // namespace fbsim
