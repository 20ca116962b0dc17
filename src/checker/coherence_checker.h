/**
 * @file
 * Global coherence checker: the executable form of the paper's shared
 * memory image definition (section 3.1).
 *
 * Structural invariants, checked over every line after every access:
 *
 *   U1  at most one cache holds a line in an exclusive state (M or E),
 *       and then no other cache holds it valid at all;
 *   U2  at most one cache owns a line (M or O) - "all data is owned
 *       uniquely either by one and only one cache or by main memory";
 *   V1  every valid cached copy of a word equals the shared image
 *       (the oracle value: the last value any processor wrote);
 *   V2  when no cache owns a line, main memory holds the shared image
 *       ("main memory is the default owner");
 *   V3  a line held in E matches main memory ("exclusive data must
 *       match the copy in main memory").
 *
 * Value oracle: because bus transactions are atomic and the bus
 * serializes all accesses, every read must return the globally last
 * value written to that word (sequential consistency per location).
 *
 * Two scan modes exist.  checkInvariants() audits the full line
 * universe (every line any cache, the memory or the oracle knows).
 * checkDirtyLines() audits only lines touched since the last scan:
 * the checker registers as a TraceSink on every bus of the system
 * and marks the line of each completed transaction, and noteWrite()
 * marks locally-written lines.  Lines not marked cannot have gained a
 * violation - every state or data change is either a local write (V1
 * territory, marked by noteWrite) or part of a bus transaction
 * (marked by onBusTransaction); silently dropping a clean copy only
 * removes holders, which cannot newly violate U1/U2/V2/V3.
 */

#ifndef FBSIM_CHECKER_COHERENCE_CHECKER_H_
#define FBSIM_CHECKER_COHERENCE_CHECKER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bus/bus.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "memory/main_memory.h"
#include "protocols/snooping_cache.h"

namespace fbsim {

/** The checker's view of the system under test. */
class CoherenceChecker : public TraceSink
{
  public:
    /** @param memory backing store.
     *  @param line_bytes system line size. */
    CoherenceChecker(const MainMemory &memory, std::size_t line_bytes);

    /** Register a cache to be inspected (any number). */
    void addCache(const SnoopingCache *cache);

    /**
     * Deregister a cache (hot-swap withdrawal): a quarantined board is
     * no longer part of the shared memory image, so the invariants
     * must stop quantifying over it - its (empty, bypassed) store
     * would otherwise still be scanned every check.  Idempotent; the
     * system layer re-adds the cache on reintegration.
     */
    void removeCache(const SnoopingCache *cache);

    /** Record a processor write (updates the oracle, dirties the
     *  line). */
    void noteWrite(Addr addr, Word value)
    {
        oracleLine(addr / lineBytes_)[wordIndexOf(addr)] = value;
        if (trackDirty_)
            dirty_.insert(addr / lineBytes_);
    }

    /**
     * Record a processor read; returns an error description when the
     * value differs from the oracle, empty string when correct.
     */
    std::string noteRead(Addr addr, Word value) const;

    /** Oracle value for a word address. */
    Word expected(Addr addr) const
    {
        const Word *w = expectedLine(addr / lineBytes_);
        return w ? w[wordIndexOf(addr)] : 0;
    }

    /**
     * The oracle's wordsPerLine contiguous words for `la`, or null
     * when no word of the line was ever written (every word then
     * reads as 0).  One hash probe per line instead of one per word;
     * stable across reads, so a drain loop may memoize it for a run
     * of same-line hits and verify each with an indexed load.
     * Invalidated by any noteWrite.
     */
    const Word *expectedLine(LineAddr la) const
    {
        // Dense fast path: workloads address lines from 0, so the
        // common case is a bounds check and an indexed load instead of
        // a hash probe.  Entry 0 means "never written"; offsets are
        // stored +1.
        if (la < denseOff_.size()) {
            std::uint64_t off = denseOff_[la];
            return off ? oracleWords_.data() + (off - 1) : nullptr;
        }
        const std::uint64_t *off = oracleSlot_.find(la);
        return off ? oracleWords_.data() + *off : nullptr;
    }

    /**
     * Render the full system-wide picture of one line: every cache's
     * consistency state and data words, the memory words, and the
     * shared-image (oracle) words.  Appended to every violation and
     * read-mismatch message so empirical failures and model-checker
     * counterexamples describe states identically, and usable directly
     * by tests and the mc replayer as the canonical state-vector
     * rendering.
     */
    std::string describeLine(LineAddr la) const;

    /** TraceSink: every completed transaction dirties its line. */
    void onBusTransaction(const BusRequest &req,
                          const BusResult &result,
                          Cycles start) override;

    /**
     * Run the structural invariants (U1, U2, V1, V2, V3) over every
     * line known to any cache, the memory, or the oracle.  Returns all
     * violations found (empty = consistent).
     */
    std::vector<std::string> checkInvariants() const;

    /**
     * Incremental scan: run the invariants only over lines dirtied
     * since the last checkDirtyLines() call, then clear the dirty
     * set.  Used by the per-access checking mode, where each access
     * can only have perturbed the lines it transacted on.
     */
    std::vector<std::string> checkDirtyLines();

    /** Lines currently marked dirty (for tests/reporting). */
    std::size_t dirtyLineCount() const { return dirty_.size(); }

    /**
     * Mark a line dirty directly (fault injection: a data flip changes
     * cached contents without any bus transaction or noteWrite, so the
     * incremental scan would otherwise never revisit the line).
     */
    void markLineDirty(LineAddr la)
    {
        if (trackDirty_)
            dirty_.insert(la);
    }

    /**
     * Attach a context annotator: its string is appended to every
     * violation and read-mismatch message.  The fault layer supplies
     * the injector's reproduction tag (seed, schedule, transaction
     * index) so any failing campaign can be replayed from the log
     * line alone.
     */
    void setAnnotator(std::function<std::string()> annotator)
    { annotator_ = std::move(annotator); }

    /**
     * Enable/disable dirty-line tracking.  When nothing consumes
     * checkDirtyLines() (per-access checking off, or in full-scan
     * mode) the per-write and per-transaction set inserts are wasted
     * work on the hot path; the system turns tracking off then.
     */
    void setTrackDirty(bool on)
    {
        trackDirty_ = on;
        if (!on)
            dirty_.clear();
    }

    /**
     * Hierarchical mode (two-level fabric): register one bridge's
     * conservative filter probes.  With any filter attached, every
     * line check also verifies the bridge-filter inclusion invariants
     * that make snoop filtering safe across buses:
     *
     *   H1  any valid copy inside cluster k implies the bridge's
     *       localHeld filter covers the line (inclusion - a
     *       down-forward the cluster needed can never be skipped);
     *   H2  any valid copy outside cluster k implies the bridge's
     *       remoteShared filter covers the line (an invalidating
     *       up-forward remote copies needed can never be skipped).
     *
     * Both filters are conservative supersets, so injected staleness
     * (suppressed erases) never trips H1/H2; only an unsafely missing
     * bit does.  With no filters attached checkLine() pays a single
     * branch on an empty vector - the flat hot path is untouched.
     *
     * `cluster` identifies the bridge; re-attaching the same cluster
     * replaces its probes (reintegration re-arms a scrubbed bridge).
     */
    void attachClusterFilter(std::size_t cluster,
                             std::function<bool(LineAddr)> may_local,
                             std::function<bool(LineAddr)> may_remote);

    /**
     * Suspend one cluster's filter checks (segment quarantine: while
     * the bridge is suspended from the root bus it sees no traffic,
     * so its remoteShared set lawfully decays).  Reintegration calls
     * attachClusterFilter() again after the scrub.
     */
    void detachClusterFilter(std::size_t cluster);

    /** Map a cache to its cluster, so H1/H2 can attribute holders
     *  (and ownerCluster() can track owners) across buses. */
    void setCacheCluster(const SnoopingCache *cache,
                         std::size_t cluster);

    /**
     * The cluster holding the line's owner (M/O), tracked through the
     * bridges; SIZE_MAX when memory is the owner (or no mapping is
     * registered).  This is what keeps dirty-line incremental
     * checking exact under faults in the hierarchy: the owner is
     * located across buses, not assumed to sit on the root.
     */
    std::size_t ownerCluster(LineAddr la) const;

    /** Total checks performed (for reporting). */
    std::uint64_t checksRun() const { return checksRun_; }

  private:
    /** One bridge's registered filter probes. */
    struct ClusterFilter
    {
        std::size_t cluster = 0;
        bool active = true;
        std::function<bool(LineAddr)> mayLocal;
        std::function<bool(LineAddr)> mayRemote;
    };

    /** Run all invariants for one line, appending violations. */
    void checkLine(LineAddr la, std::vector<std::string> &out) const;

    /** H1/H2 for one line (hier mode only; cold path). */
    void checkClusterFilters(LineAddr la,
                             std::vector<std::string> &out) const;

    /** The annotator's tag (" [ ... ]"), or empty when unset. */
    std::string annotation() const
    { return annotator_ ? " " + annotator_() : std::string(); }

    /** Word index within a line (line sizes are powers of two). */
    std::size_t wordIndexOf(Addr addr) const
    { return (addr / kWordBytes) & (wordsPerLine_ - 1); }

    /** The line's oracle slab, allocating a zero-filled one if new. */
    Word *oracleLine(LineAddr la)
    {
        std::uint64_t *off = oracleSlot_.find(la);
        if (off == nullptr) {
            std::uint64_t at = oracleWords_.size();
            oracleSlot_[la] = at;
            oracleWords_.resize(at + wordsPerLine_, 0);
            if (la < kDenseLines) {
                if (la >= denseOff_.size())
                    denseOff_.resize(
                        static_cast<std::size_t>(la) + 1, 0);
                denseOff_[static_cast<std::size_t>(la)] = at + 1;
            }
            return oracleWords_.data() + at;
        }
        return oracleWords_.data() + *off;
    }

    /// Largest line address mirrored in the dense lookup array (caps
    /// its memory at 512 KiB even for adversarial sparse traces).
    static constexpr LineAddr kDenseLines = 1u << 16;

    const MainMemory &memory_;
    std::size_t lineBytes_;
    std::size_t wordsPerLine_;
    std::vector<const SnoopingCache *> caches_;
    FlatMap64<std::uint64_t> oracleSlot_;  ///< line -> oracleWords_ offset
    std::vector<Word> oracleWords_;        ///< zero-filled line slabs
    std::vector<std::uint64_t> denseOff_;  ///< low lines: offset + 1, 0 = absent
    std::unordered_set<LineAddr> dirty_;
    bool trackDirty_ = true;
    std::function<std::string()> annotator_;
    mutable std::uint64_t checksRun_ = 0;
    /** Hierarchical mode state; both empty in flat systems. */
    std::vector<ClusterFilter> clusterFilters_;
    std::unordered_map<const SnoopingCache *, std::size_t>
        cacheCluster_;
};

} // namespace fbsim

#endif // FBSIM_CHECKER_COHERENCE_CHECKER_H_
