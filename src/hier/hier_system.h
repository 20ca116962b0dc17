/**
 * @file
 * Two-level multi-bus system (the paper's section 6 future work): a
 * root Futurebus hosting main memory, and any number of leaf buses
 * ("clusters") of caches, coupled by BusBridges.
 *
 * Consistency is maintained hierarchically: the MOESI invariants hold
 * globally (the same CoherenceChecker audits all clusters against the
 * single root memory), while the bridges' conservative filters keep
 * cluster-private coherence traffic off the root bus.
 *
 * Restrictions: leaf caches must run MOESI-class protocols (no BS
 * abort protocols - an abort cannot propagate across a bridge), and
 * Sync commands do not cross bridges.
 */

#ifndef FBSIM_HIER_HIER_SYSTEM_H_
#define FBSIM_HIER_HIER_SYSTEM_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "checker/coherence_checker.h"
#include "hier/bridge.h"
#include "sim/system.h"

namespace fbsim {

/** Configuration of a hierarchical system. */
struct HierConfig
{
    std::size_t lineBytes = 32;
    BusCostModel rootCost;   ///< root bus timing
    BusCostModel leafCost;   ///< leaf bus timing
    unsigned maxBusRetries = 16;
    /** Run the full invariant check after every access (tests). */
    bool checkEveryAccess = false;
    /** Snoop-filter fast path on root and leaf buses (see SystemConfig). */
    bool snoopFilter = true;
    /** Debug: assert the filter never suppresses a holder. */
    bool snoopFilterCrossCheck = false;
    /** checkEveryAccess re-verifies only dirtied lines (see SystemConfig). */
    bool incrementalCheck = true;

    /**
     * Fault campaign (nullopt = fault-free).  One injector serves the
     * whole fabric: root bus, root memory slave, every leaf bus, and
     * the bridges' own fault sites ("bridge<k>.drop" etc., keyed by
     * cluster index so assembly order never shifts a schedule).
     */
    std::optional<FaultConfig> faults;
    /** Consecutive faulted accesses by one master before its cluster's
     *  watchdog trips (see SystemConfig::watchdogRounds). */
    unsigned watchdogRounds = 8;
    bool quarantineOnWatchdog = true;
    /** Watchdog trips charged to a cluster (by its masters or its
     *  bridge's forward watchdog) before the whole leaf segment is
     *  quarantined - the hierarchy's board is the board-bus. */
    unsigned quarantineAfterTrips = 1;
    /** Schedule a quarantined segment's reintegration this many
     *  root-bus busy cycles after it was pulled; 0 = permanent. */
    Cycles reintegrateAfterCycles = 0;
    /**
     * Audit-and-scrub cadence: every N accesses, recompute the exact
     * per-cluster presence sets from the leaf TagStores and repair
     * every bridge filter to them, counting the divergence.  0 =
     * never (scrubFilters() can still be called by hand).
     */
    std::uint64_t scrubEveryAccesses = 0;
};

/** A root bus plus clusters of caches behind bridges. */
class HierSystem
{
  public:
    /** @param clusters number of leaf buses (>= 1). */
    HierSystem(const HierConfig &config, std::size_t clusters);
    ~HierSystem();

    HierSystem(const HierSystem &) = delete;
    HierSystem &operator=(const HierSystem &) = delete;

    std::size_t numClusters() const { return clusters_.size(); }

    /**
     * Add a cache to a cluster; returns a system-wide client id.
     * The protocol must be a MOESI-class member (MOESI, Berkeley,
     * Dragon; write-through via spec.writeThrough).
     */
    MasterId addCache(std::size_t cluster, const CacheSpec &spec);

    /** Add a non-caching master to a cluster. */
    MasterId addNonCachingMaster(std::size_t cluster,
                                 bool broadcast_writes);

    /** Processor access API (mirrors System). */
    AccessOutcome read(MasterId id, Addr addr);
    AccessOutcome write(MasterId id, Addr addr, Word value);
    AccessOutcome flush(MasterId id, Addr addr, bool keep_copy);

    /** Run the global invariant check. */
    std::vector<std::string> checkNow() const;

    /** Oracle violations recorded so far. */
    const std::vector<std::string> &violations() const
    { return violations_; }

    std::size_t numClients() const { return clients_.size(); }
    SnoopingCache *cacheOf(MasterId id);

    /** Cluster a client was added to. */
    std::size_t clusterOf(MasterId id) const;

    /** Exact test: would the client's next access use a bus? */
    bool wouldUseBus(MasterId id, bool is_write, Addr addr) const;
    Bus &rootBus() { return *rootBus_; }
    Bus &leafBus(std::size_t cluster);
    BusBridge &bridge(std::size_t cluster);
    MainMemory &memory() { return *memory_; }
    CoherenceChecker &checker() { return *checker_; }

    /** Observe fault/recovery instants on every bus (Perfetto etc.). */
    void attachTrace(TraceSink *sink);

    /**
     * Pull one leaf segment (P896 live removal of a board-bus): every
     * cache in the cluster is flushed and isolated, the bridge is
     * suspended from the root bus, and the cluster's filter checks are
     * detached.  The flushes run under the injector's quiesced window
     * and the bridge's maintenance bypass, so owned data provably
     * drains to memory.  Returns false when already quarantined (or no
     * fault machinery is armed).
     */
    bool quarantineCluster(std::size_t cluster);

    /**
     * Rejoin a quarantined segment: caches rejoin cold (all lines
     * invalid), the bridge's filters are scrubbed to the *exact*
     * recomputed presence sets before it resumes snooping, and the
     * cluster's H1/H2 checks re-attach.  Returns false when not
     * quarantined.
     */
    bool reintegrateCluster(std::size_t cluster);

    bool clusterQuarantined(std::size_t cluster) const
    { return clusterQuarantined_[cluster]; }

    /**
     * Audit-and-scrub every active bridge's filters against the exact
     * presence sets recomputed from the leaf TagStores; repairs are
     * applied and the total divergence (stale + missing entries) is
     * returned and accumulated into scrubDivergence().
     */
    std::uint64_t scrubFilters();

    /** Fault/recovery ladder counters and log (mirror System's). */
    const std::vector<std::string> &faultEvents() const
    { return faultEvents_; }
    std::uint64_t watchdogTrips() const { return watchdogTrips_; }
    std::uint64_t quarantineCount() const { return quarantines_; }
    std::uint64_t reintegrationCount() const { return reintegrations_; }
    std::uint64_t scrubDivergence() const { return scrubDivergence_; }
    const FaultInjector *faults() const { return faults_.get(); }

  private:
    struct Cluster
    {
        std::unique_ptr<BusBridge> bridge;
        std::unique_ptr<Bus> bus;
        MasterId nextLeafId = 0;
    };

    struct ClientRef
    {
        std::size_t cluster;
        std::unique_ptr<BusClient> client;
        SnoopingCache *cache;   ///< null for non-caching masters
    };

    void afterAccess();

    /** Watchdog/ladder bookkeeping after every access. */
    void postAccess(MasterId id, const AccessOutcome &outcome);

    /** Apply a due dataFlip fault to a random live cache. */
    void maybeFlipData();

    /** Charge one watchdog trip to a cluster's escalation ladder. */
    void tripCluster(std::size_t cluster, const std::string &why);

    /** Fire scheduled segment rejoins whose due cycle passed. */
    void serviceRejoins();

    /** Re-attach cluster `k`'s H1/H2 probes to its bridge. */
    void attachFilterChecks(std::size_t k);

    /** Exact per-cluster presence sets from the leaf TagStores. */
    void computePresence(
        std::vector<std::unordered_set<LineAddr>> &held) const;

    void recordFaultEvent(std::string event);

    HierConfig config_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<MainMemorySlave> rootSlave_;
    std::unique_ptr<Bus> rootBus_;
    std::vector<Cluster> clusters_;
    std::vector<ClientRef> clients_;
    std::unique_ptr<CoherenceChecker> checker_;
    std::vector<std::string> violations_;

    // Fault/recovery machinery (all idle when faults_ is null).
    std::unique_ptr<FaultInjector> faults_;
    TraceSink *trace_ = nullptr;
    std::vector<unsigned> noProgress_;       ///< per master
    std::vector<unsigned> clusterTrips_;     ///< per cluster, since join
    std::vector<std::uint64_t> bridgeTripsSeen_; ///< polled bridge trips
    std::vector<bool> clusterQuarantined_;
    std::vector<Cycles> rejoinDue_;          ///< root busy-cycle clock
    std::size_t scheduledRejoins_ = 0;
    std::vector<std::string> faultEvents_;
    std::uint64_t watchdogTrips_ = 0;
    std::uint64_t quarantines_ = 0;
    std::uint64_t reintegrations_ = 0;
    std::uint64_t scrubDivergence_ = 0;
    std::uint64_t accessCount_ = 0;
};

} // namespace fbsim

#endif // FBSIM_HIER_HIER_SYSTEM_H_
