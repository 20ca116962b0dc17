#include "hier/hier_system.h"

#include "common/logging.h"

namespace fbsim {

namespace {

/** Leaf-bus master id reserved for the bridge's down-forwards. */
constexpr MasterId kBridgeLeafId = 0xfffe;

/** Cap on recorded violations (mirrors System). */
constexpr std::size_t kMaxRecordedViolations = 1000;

/** rejoinDue_ sentinel: no reintegration scheduled. */
constexpr Cycles kNeverDue = ~static_cast<Cycles>(0);

} // namespace

HierSystem::HierSystem(const HierConfig &config, std::size_t clusters)
    : config_(config)
{
    fbsim_assert(clusters >= 1);
    std::size_t words = config_.lineBytes / kWordBytes;
    memory_ = std::make_unique<MainMemory>(words);
    rootSlave_ = std::make_unique<MainMemorySlave>(*memory_);
    rootBus_ = std::make_unique<Bus>(*rootSlave_, config_.rootCost,
                                     config_.maxBusRetries);
    rootBus_->setSnoopFilterEnabled(config_.snoopFilter);
    rootBus_->setSnoopCrossCheck(config_.snoopFilterCrossCheck);
    checker_ =
        std::make_unique<CoherenceChecker>(*memory_, config_.lineBytes);
    // The checker observes every bus so incremental per-access scans
    // see lines dirtied by any cluster's transactions; the tracking is
    // skipped entirely when nothing will consume the dirty set.
    rootBus_->addTraceSink(checker_.get());
    checker_->setTrackDirty(config_.checkEveryAccess &&
                            config_.incrementalCheck);

    if (config_.faults && config_.faults->anyEnabled()) {
        faults_ = std::make_unique<FaultInjector>(*config_.faults);
        // Every bus in the fabric gets the injector: the root so its
        // own sites fire, the leaves so a bridge exhausting its
        // forward retries surfaces a coherent converged=false give-up
        // (not a panic) that the masters' watchdog then sees.
        rootBus_->setFaultInjector(faults_.get());
        rootSlave_->setFaultInjector(faults_.get());
        checker_->setAnnotator(
            [this]() { return faults_->describe(); });
    }

    clusters_.resize(clusters);
    clusterTrips_.assign(clusters, 0);
    bridgeTripsSeen_.assign(clusters, 0);
    clusterQuarantined_.assign(clusters, false);
    rejoinDue_.assign(clusters, kNeverDue);
    for (std::size_t i = 0; i < clusters; ++i) {
        Cluster &cluster = clusters_[i];
        cluster.bridge = std::make_unique<BusBridge>(
            static_cast<MasterId>(i), kBridgeLeafId, *rootBus_, words);
        cluster.bus = std::make_unique<Bus>(
            *cluster.bridge, config_.leafCost, config_.maxBusRetries);
        cluster.bus->setSnoopFilterEnabled(config_.snoopFilter);
        cluster.bus->setSnoopCrossCheck(config_.snoopFilterCrossCheck);
        cluster.bus->addTraceSink(checker_.get());
        cluster.bridge->setLeafBus(cluster.bus.get());
        rootBus_->attach(cluster.bridge.get());
        // With three or more clusters a third cluster's CH cannot be
        // gathered during another leaf's address phase; resolve CH
        // conditionals conservatively (legal per notes 9/10).
        cluster.bridge->setConservativeCh(clusters > 2);
        if (faults_) {
            cluster.bus->setFaultInjector(faults_.get());
            cluster.bridge->setFaultInjector(faults_.get(), i);
        }
        // H1/H2: the checker verifies the bridge's conservative
        // filters never unsafely exclude a holder.
        attachFilterChecks(i);
    }
}

HierSystem::~HierSystem() = default;

MasterId
HierSystem::addCache(std::size_t cluster, const CacheSpec &spec)
{
    fbsim_assert(cluster < clusters_.size());
    if (!spec.table) {
        switch (spec.protocol) {
          case ProtocolKind::Moesi:
          case ProtocolKind::Berkeley:
          case ProtocolKind::Dragon:
            break;
          default:
            fbsim_fatal("hierarchical systems require MOESI-class "
                        "protocols (no BS aborts); %s is not one",
                        std::string(protocolKindName(spec.protocol))
                            .c_str());
        }
    }

    Cluster &c = clusters_[cluster];
    SnoopingCacheConfig cfg;
    cfg.geometry = {config_.lineBytes, spec.numSets, spec.assoc};
    cfg.kind = spec.writeThrough ? ClientKind::WriteThrough
                                 : ClientKind::CopyBack;
    cfg.discardNearReplacement = spec.discardNearReplacement;

    // spec.table/spec.makeChooser overrides mirror System::addCache:
    // the hier differential drives SequenceChoosers through here.
    const ProtocolTable &table =
        spec.table ? *spec.table : protocolTable(spec.protocol);
    auto chooser = spec.makeChooser
                       ? spec.makeChooser()
                       : makeChooser(spec.chooser, spec.policy,
                                     spec.seed);
    auto cache = std::make_unique<SnoopingCache>(
        c.nextLeafId++, *c.bus, table, std::move(chooser), cfg);
    if (faults_)
        cache->setFaultTolerant(true);
    c.bus->attach(cache.get());
    checker_->addCache(cache.get());
    checker_->setCacheCluster(cache.get(), cluster);

    MasterId id = static_cast<MasterId>(clients_.size());
    SnoopingCache *raw = cache.get();
    clients_.push_back({cluster, std::move(cache), raw});
    noProgress_.push_back(0);
    return id;
}

MasterId
HierSystem::addNonCachingMaster(std::size_t cluster,
                                bool broadcast_writes)
{
    fbsim_assert(cluster < clusters_.size());
    Cluster &c = clusters_[cluster];
    auto master = std::make_unique<NonCachingMaster>(
        c.nextLeafId++, *c.bus, config_.lineBytes, broadcast_writes);
    MasterId id = static_cast<MasterId>(clients_.size());
    clients_.push_back({cluster, std::move(master), nullptr});
    noProgress_.push_back(0);
    return id;
}

AccessOutcome
HierSystem::read(MasterId id, Addr addr)
{
    fbsim_assert(id < clients_.size());
    AccessOutcome outcome = clients_[id].client->read(addr);
    // A faulted read returned no data; blaming the timing fault as
    // corruption would be wrong (mirrors System::read).
    if (!outcome.faulted &&
        outcome.value != checker_->expected(addr) &&
        violations_.size() < kMaxRecordedViolations)
        violations_.push_back(checker_->noteRead(addr, outcome.value));
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
HierSystem::write(MasterId id, Addr addr, Word value)
{
    fbsim_assert(id < clients_.size());
    AccessOutcome outcome = clients_[id].client->write(addr, value);
    // A faulted write never reached the shared image.
    if (!outcome.faulted)
        checker_->noteWrite(addr, value);
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
HierSystem::flush(MasterId id, Addr addr, bool keep_copy)
{
    fbsim_assert(id < clients_.size());
    AccessOutcome outcome = clients_[id].client->flush(addr, keep_copy);
    postAccess(id, outcome);
    return outcome;
}

std::vector<std::string>
HierSystem::checkNow() const
{
    return checker_->checkInvariants();
}

SnoopingCache *
HierSystem::cacheOf(MasterId id)
{
    fbsim_assert(id < clients_.size());
    return clients_[id].cache;
}

std::size_t
HierSystem::clusterOf(MasterId id) const
{
    fbsim_assert(id < clients_.size());
    return clients_[id].cluster;
}

bool
HierSystem::wouldUseBus(MasterId id, bool is_write, Addr addr) const
{
    fbsim_assert(id < clients_.size());
    const SnoopingCache *cache = clients_[id].cache;
    if (!cache)
        return true;
    State s = cache->lineState(addr);
    if (!is_write)
        return s == State::I;
    if (cache->kind() == ClientKind::WriteThrough)
        return true;
    return !(s == State::M || s == State::E);
}

Bus &
HierSystem::leafBus(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    return *clusters_[cluster].bus;
}

BusBridge &
HierSystem::bridge(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    return *clusters_[cluster].bridge;
}

void
HierSystem::afterAccess()
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
HierSystem::attachTrace(TraceSink *sink)
{
    fbsim_assert(sink != nullptr);
    trace_ = sink;
    rootBus_->addTraceSink(sink);
    for (Cluster &c : clusters_)
        c.bus->addTraceSink(sink);
}

void
HierSystem::postAccess(MasterId id, const AccessOutcome &outcome)
{
    ++accessCount_;
    if (faults_) {
        if (scheduledRejoins_ > 0)
            serviceRejoins();
        if (outcome.faulted) {
            unsigned &rounds = noProgress_[id];
            if (++rounds >= config_.watchdogRounds) {
                rounds = 0;
                tripCluster(clients_[id].cluster,
                            strprintf("master %u made no forward "
                                      "progress over %u consecutive "
                                      "faulted accesses",
                                      id, config_.watchdogRounds));
            }
        } else {
            noProgress_[id] = 0;
        }
        // The bridges run their own forward watchdog; poll for new
        // trips and charge them to the same per-cluster ladder.
        for (std::size_t k = 0; k < clusters_.size(); ++k) {
            std::uint64_t trips =
                clusters_[k].bridge->stats().watchdogTrips;
            if (trips > bridgeTripsSeen_[k]) {
                bridgeTripsSeen_[k] = trips;
                tripCluster(k, strprintf("bridge %zu forward watchdog "
                                         "tripped",
                                         k));
            }
        }
        if (config_.scrubEveryAccesses > 0 &&
            accessCount_ % config_.scrubEveryAccesses == 0)
            scrubFilters();
        maybeFlipData();
    }
    if (config_.checkEveryAccess)
        afterAccess();
}

void
HierSystem::maybeFlipData()
{
    if (!faults_->shouldFlipData())
        return;
    // Victim selection comes from the data-flip stream itself (as in
    // the flat System); caches in a quarantined segment are isolated
    // from the fabric and excluded.
    std::vector<SnoopingCache *> candidates;
    for (ClientRef &c : clients_) {
        if (c.cache && !c.cache->quarantined() &&
            !clusterQuarantined_[c.cluster])
            candidates.push_back(c.cache);
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
                          victim->clientId(),
                          rootBus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));
}

void
HierSystem::tripCluster(std::size_t cluster, const std::string &why)
{
    ++watchdogTrips_;
    std::string msg = strprintf(
        "watchdog: cluster %zu: %s %s", cluster, why.c_str(),
        faults_->describe().c_str());
    fbsim_warn("%s", msg.c_str());
    if (trace_)
        trace_->onInstant("watchdog-trip", kTraceFaultPid,
                          static_cast<std::uint32_t>(cluster),
                          rootBus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));
    if (config_.quarantineOnWatchdog &&
        ++clusterTrips_[cluster] >= config_.quarantineAfterTrips)
        quarantineCluster(cluster);
}

void
HierSystem::serviceRejoins()
{
    const Cycles now = rootBus_->stats().busyCycles;
    for (std::size_t k = 0; k < rejoinDue_.size(); ++k) {
        if (rejoinDue_[k] != kNeverDue && now >= rejoinDue_[k])
            reintegrateCluster(k);
    }
}

void
HierSystem::attachFilterChecks(std::size_t k)
{
    BusBridge *b = clusters_[k].bridge.get();
    checker_->attachClusterFilter(
        k, [b](LineAddr la) { return b->mayBeLocal(la); },
        [b](LineAddr la) { return b->mayBeRemote(la); });
}

void
HierSystem::computePresence(
    std::vector<std::unordered_set<LineAddr>> &held) const
{
    held.assign(clusters_.size(), {});
    for (const ClientRef &ref : clients_) {
        if (!ref.cache || ref.cache->quarantined())
            continue;
        std::unordered_set<LineAddr> &mine = held[ref.cluster];
        ref.cache->forEachValidLine(
            [&](const CacheLine &line) { mine.insert(line.addr); });
    }
}

std::uint64_t
HierSystem::scrubFilters()
{
    // Exact presence per cluster, recomputed from the TagStores; each
    // active bridge's filters are audited against them and repaired.
    std::vector<std::unordered_set<LineAddr>> held;
    computePresence(held);
    std::uint64_t divergence = 0;
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        if (clusterQuarantined_[k])
            continue;   // suspended filters are scrubbed at rejoin
        std::unordered_set<LineAddr> remote;
        for (std::size_t j = 0; j < clusters_.size(); ++j) {
            if (j != k)
                remote.insert(held[j].begin(), held[j].end());
        }
        FilterAudit audit = clusters_[k].bridge->auditFilters(
            held[k], remote, /*repair=*/true);
        if (audit.total() > 0 && trace_) {
            trace_->onInstant(
                "filter-scrub", kTraceFaultPid,
                static_cast<std::uint32_t>(k),
                rootBus_->stats().busyCycles,
                strprintf("bridge %zu: %llu stale, %llu missing "
                          "entries repaired %s",
                          k,
                          static_cast<unsigned long long>(
                              audit.staleLocal + audit.staleRemote),
                          static_cast<unsigned long long>(
                              audit.missingLocal + audit.missingRemote),
                          faults_ ? faults_->describe().c_str() : ""));
        }
        divergence += audit.total();
    }
    scrubDivergence_ += divergence;
    return divergence;
}

bool
HierSystem::quarantineCluster(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    if (!faults_ || clusterQuarantined_[cluster])
        return false;
    ++quarantines_;
    std::string msg = strprintf(
        "quarantine: leaf segment %zu flushed and isolated %s", cluster,
        faults_->describe().c_str());
    fbsim_warn("%s", msg.c_str());
    if (trace_)
        trace_->onInstant("quarantine", kTraceFaultPid,
                          static_cast<std::uint32_t>(cluster),
                          rootBus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));

    // P896 live removal: the whole board-bus leaves under a quiesced
    // window - no site fires while owned data drains to memory, so the
    // flushes provably converge and nothing is lost.
    Cluster &c = clusters_[cluster];
    faults_->setQuiesced(true);
    c.bridge->setMaintenanceBypass(true);
    for (ClientRef &ref : clients_) {
        if (ref.cluster != cluster || !ref.cache ||
            ref.cache->quarantined())
            continue;
        ref.cache->quarantine();
        c.bus->setSnooperSuspended(ref.cache->clientId(), true);
        checker_->removeCache(ref.cache);
    }
    c.bridge->setMaintenanceBypass(false);
    faults_->setQuiesced(false);

    // Detached from the root, the bridge neither snoops nor forwards
    // down; its filters lawfully decay until the rejoin scrub.
    rootBus_->setSnooperSuspended(static_cast<MasterId>(cluster), true);
    checker_->detachClusterFilter(cluster);
    clusterQuarantined_[cluster] = true;
    for (std::size_t id = 0; id < clients_.size(); ++id) {
        if (clients_[id].cluster == cluster)
            noProgress_[id] = 0;
    }
    if (config_.reintegrateAfterCycles > 0 &&
        rejoinDue_[cluster] == kNeverDue) {
        rejoinDue_[cluster] = rootBus_->stats().busyCycles +
                              config_.reintegrateAfterCycles;
        ++scheduledRejoins_;
    }
    return true;
}

bool
HierSystem::reintegrateCluster(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    if (!clusterQuarantined_[cluster])
        return false;
    if (rejoinDue_[cluster] != kNeverDue) {
        rejoinDue_[cluster] = kNeverDue;
        --scheduledRejoins_;
    }
    Cluster &c = clusters_[cluster];
    for (ClientRef &ref : clients_) {
        if (ref.cluster != cluster || !ref.cache)
            continue;
        if (ref.cache->reintegrate()) {
            c.bus->setSnooperSuspended(ref.cache->clientId(), false);
            checker_->addCache(ref.cache);
        }
    }
    // The rejoined segment's caches are all invalid; scrub the
    // bridge's decayed filters to the exact recomputed presence sets
    // *before* it resumes snooping, so its first down-forward decision
    // is already sound, then re-arm the H1/H2 checks.
    std::vector<std::unordered_set<LineAddr>> held;
    computePresence(held);
    std::unordered_set<LineAddr> remote;
    for (std::size_t j = 0; j < clusters_.size(); ++j) {
        if (j != cluster)
            remote.insert(held[j].begin(), held[j].end());
    }
    FilterAudit audit =
        c.bridge->auditFilters(held[cluster], remote, /*repair=*/true);
    scrubDivergence_ += audit.total();
    rootBus_->setSnooperSuspended(static_cast<MasterId>(cluster),
                                  false);
    attachFilterChecks(cluster);
    clusterQuarantined_[cluster] = false;
    clusterTrips_[cluster] = 0;   // fresh ladder for the rejoined board
    ++reintegrations_;
    std::string msg = strprintf(
        "reintegrate: leaf segment %zu rejoined cold, filters "
        "scrubbed (%llu entries) %s",
        cluster, static_cast<unsigned long long>(audit.total()),
        faults_ ? faults_->describe().c_str() : "");
    fbsim_warn("%s", msg.c_str());
    if (trace_)
        trace_->onInstant("reintegrate", kTraceFaultPid,
                          static_cast<std::uint32_t>(cluster),
                          rootBus_->stats().busyCycles, msg);
    recordFaultEvent(std::move(msg));
    return true;
}

void
HierSystem::recordFaultEvent(std::string event)
{
    if (faultEvents_.size() < kMaxRecordedViolations)
        faultEvents_.push_back(std::move(event));
}

} // namespace fbsim
