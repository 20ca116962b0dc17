#include "workloads.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "protocols/factory.h"
#include "trace/ref_stream.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace perfbench {

using namespace fbsim;

void
JobClock::reset(std::vector<std::uint64_t> job_seeds)
{
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.assign(job_seeds.size(), Interval{});
    seeds_ = std::move(job_seeds);
    workers_.clear();
}

std::size_t
JobClock::indexOf(std::uint64_t job_seed) const
{
    return static_cast<std::size_t>(
        std::find(seeds_.begin(), seeds_.end(), job_seed) -
        seeds_.begin());
}

void
JobClock::start(std::uint64_t job_seed)
{
    const auto now = std::chrono::steady_clock::now();
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t worker = 0;
    while (worker < workers_.size() && workers_[worker] != self)
        ++worker;
    if (worker == workers_.size())
        workers_.push_back(self);
    const std::size_t i = indexOf(job_seed);
    if (i < jobs_.size())
        jobs_[i] = {now, now, worker, false};
}

void
JobClock::finish(std::uint64_t job_seed)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t i = indexOf(job_seed);
    if (i < jobs_.size()) {
        jobs_[i].end = now;
        jobs_[i].finished = true;
    }
}

std::vector<JobClock::Interval>
JobClock::intervals(TimePoint returned)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Interval> out = jobs_;
    for (Interval &job : out) {
        if (job.start == TimePoint{})
            job.start = returned;   // never reached its streams
        if (job.finished)
            continue;
        job.end = returned;
        for (const Interval &other : jobs_) {
            if (other.worker == job.worker && other.start > job.start)
                job.end = std::min(job.end, other.start);
        }
    }
    return out;
}

namespace {

/** A bench generator seed under the run's --seed. */
std::uint64_t
inputSeed(std::uint64_t bench_seed, std::uint64_t seed)
{
    return seed == kBenchSeed ? bench_seed
                              : Rng::deriveSeed(bench_seed, seed);
}

/** `procs` slots of one cache spec (or non-caching masters), seeded
 *  like bench/bench_util.h's mixOf(). */
ProtocolMix
mixOf(std::string name, CacheSpec spec, std::size_t procs,
      bool non_caching = false, std::size_t num_sets = 64,
      std::size_t assoc = 2)
{
    ProtocolMix mix;
    mix.name = std::move(name);
    spec.numSets = num_sets;
    spec.assoc = assoc;
    for (std::size_t i = 0; i < procs; ++i) {
        MixSlot slot;
        slot.nonCaching = non_caching;
        if (!non_caching) {
            slot.cache = spec;
            slot.cache.seed = i + 1;
        }
        mix.slots.push_back(slot);
    }
    return mix;
}

CacheSpec
protocolSpec(ProtocolKind kind)
{
    CacheSpec spec;
    spec.protocol = kind;
    return spec;
}

CacheSpec
policySpec(MoesiPolicy::SharedWrite shared_write)
{
    CacheSpec spec;
    spec.chooser = ChooserKind::Policy;
    spec.policy.sharedWrite = shared_write;
    return spec;
}

/** perf_line_size.cc's workload: spatial locality that ends at a
 *  32-byte block, blocks scattered 256 bytes apart. */
class ScatteredBlockWorkload : public RefStream
{
  public:
    ScatteredBlockWorkload(std::size_t blocks, double p_write,
                           std::size_t proc, std::uint64_t seed)
        : blocks_(blocks), pWrite_(p_write), proc_(proc),
          rng_(seed ^ (proc * 0x7919ull + 1))
    {
    }

    ProcRef
    next() override
    {
        std::size_t depth = rng_.geometric(0.5);
        std::size_t block = depth % blocks_;
        Addr base = (1ull << 30) + proc_ * blocks_ * 256 + block * 256;
        ProcRef ref;
        ref.addr = base + rng_.below(4) * kWordBytes;
        ref.write = rng_.chance(pWrite_);
        return ref;
    }

  private:
    std::size_t blocks_;
    double pWrite_;
    std::size_t proc_;
    Rng rng_;
};

/** One processor's shard of a trace.  Processor 0's shard stamps its
 *  job's end as the worker drops it: when the worker moves on, or -
 *  for its last job - leaves the campaign, rather than when the
 *  campaign returns. */
class ShardStream : public SpanStream
{
  public:
    ShardStream(std::span<const ProcRef> refs,
                std::shared_ptr<JobClock> clock, std::uint64_t job_seed)
        : SpanStream(refs), clock_(std::move(clock)), jobSeed_(job_seed)
    {
    }

    ShardStream(const ShardStream &) = delete;
    ShardStream &operator=(const ShardStream &) = delete;

    ~ShardStream() override
    {
        if (clock_)
            clock_->finish(jobSeed_);
    }

  private:
    std::shared_ptr<JobClock> clock_;
    std::uint64_t jobSeed_;
};

CostPoint
costPoint(Cycles mem_latency, Cycles glitch)
{
    CostPoint c;
    c.name = strprintf("mem=%llu/glitch=%llu",
                       static_cast<unsigned long long>(mem_latency),
                       static_cast<unsigned long long>(glitch));
    c.cost.memLatency = mem_latency;
    c.cost.glitchPenalty = glitch;
    return c;
}

/** A campaign whose stream factories stamp each job's start on
 *  `clock`. */
Campaign
timed(std::string name, CampaignSpec spec, unsigned workers = 1,
      std::shared_ptr<JobClock> clock = std::make_shared<JobClock>())
{
    Campaign c;
    c.name = std::move(name);
    c.workers = workers;
    c.clock = std::move(clock);
    for (WorkloadSpec &w : spec.workloads) {
        w.make = [make = std::move(w.make), clock = c.clock](
                     std::size_t proc, std::size_t procs,
                     std::uint64_t job_seed) {
            if (proc == 0)
                clock->start(job_seed);
            return make(proc, procs, job_seed);
        };
    }
    c.spec = std::move(spec);
    return c;
}

// P1 (perf_protocols.cc): the standard lineup x N processors.
Campaign
protocolsP1(std::uint64_t seed)
{
    struct Setup
    {
        const char *name;
        CacheSpec spec;
        bool nonCaching = false;
    };
    CacheSpec write_through;
    write_through.writeThrough = true;
    const Setup lineup[] = {
        {"MOESI (update)", protocolSpec(ProtocolKind::Moesi)},
        {"MOESI (invalidate)",
         policySpec(MoesiPolicy::SharedWrite::Invalidate)},
        {"Berkeley", protocolSpec(ProtocolKind::Berkeley)},
        {"Dragon", protocolSpec(ProtocolKind::Dragon)},
        {"Write-Once", protocolSpec(ProtocolKind::WriteOnce)},
        {"Illinois", protocolSpec(ProtocolKind::Illinois)},
        {"Firefly", protocolSpec(ProtocolKind::Firefly)},
        {"write-through", write_through},
        {"non-caching", CacheSpec{}, true},
    };
    const std::size_t proc_counts[] = {1, 2, 4, 8, 12, 16};

    Arch85Params params;
    params.pShared = 0.05;
    params.pSharedWrite = 0.3;
    params.privateLines = 192;
    CampaignSpec spec;
    spec.refsPerProc = 6000;
    for (const Setup &s : lineup) {
        for (std::size_t n : proc_counts) {
            spec.mixes.push_back(mixOf(strprintf("%s/N=%zu", s.name, n),
                                       s.spec, n, s.nonCaching));
        }
    }
    spec.workloads.push_back(
        arch85Workload("arch85", params, inputSeed(1, seed)));
    return timed("P1 protocols", std::move(spec));
}

// P3 (perf_line_size.cc): line size at constant capacity.
Campaign
lineSizeP3(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.refsPerProc = 12000;
    spec.mixes.push_back(mixOf("MOESI", CacheSpec{}, 4));
    for (std::size_t line : {8, 16, 32, 64, 128}) {
        GeometryPoint g;
        g.name = strprintf("%zuB", line);
        g.lineBytes = line;
        g.numSets = 16 * 1024 / (line * 2);
        g.assoc = 2;
        spec.geometries.push_back(g);
    }
    WorkloadSpec w;
    w.name = "scattered-blocks";
    const std::uint64_t stream_seed = inputSeed(3, seed);
    w.make = [stream_seed](std::size_t proc, std::size_t,
                           std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new ScatteredBlockWorkload(512, 0.25, proc, stream_seed));
    };
    spec.workloads.push_back(std::move(w));
    return timed("P3 line size", std::move(spec));
}

// P4 (perf_mixed_protocols.cc): mixed protocols at full speed.
Campaign
mixedP4(std::uint64_t seed)
{
    const std::size_t procs = 8;
    const char *names[] = {
        "homogeneous MOESI (preferred)",
        "mixed: MOESI+Berkeley+Dragon+WT+I/O",
        "random legal action everywhere",
    };
    CampaignSpec spec;
    spec.refsPerProc = 10000;
    for (int which = 0; which < 3; ++which) {
        ProtocolMix mix;
        mix.name = names[which];
        for (std::size_t i = 0; i < procs; ++i) {
            MixSlot slot;
            if (which == 1 && i + 1 == procs) {
                slot.nonCaching = true;
                slot.broadcastWrites = true;
                mix.slots.push_back(slot);
                continue;
            }
            CacheSpec &c = slot.cache;
            c.numSets = 64;
            c.assoc = 2;
            c.seed = i + 1;
            if (which == 1) {
                switch (i % 4) {
                case 1: c.protocol = ProtocolKind::Berkeley; break;
                case 2: c.protocol = ProtocolKind::Dragon; break;
                case 3: c.writeThrough = true; break;
                default: break;
                }
            } else if (which == 2) {
                c.chooser = ChooserKind::Random;
                c.seed = 1000 + i;
            }
            mix.slots.push_back(slot);
        }
        spec.mixes.push_back(std::move(mix));
    }
    Arch85Params params;
    params.pShared = 0.15;
    params.sharedLines = 24;
    spec.workloads.push_back(
        arch85Workload("arch85", params, inputSeed(17, seed)));
    return timed("P4 mixed protocols", std::move(spec));
}

// P5 (ablation_choice_points.cc): notes 9-12 ablations, then the
// three exclusive-state variants on a private working set.
std::vector<Campaign>
ablationP5(std::uint64_t seed)
{
    using Apply = void (*)(MoesiPolicy &);
    const std::pair<const char *, Apply> ablations[] = {
        {"preferred (all optimizations)", [](MoesiPolicy &) {}},
        {"note 9: never reclaim M from O",
         [](MoesiPolicy &p) { p.useOwnedReclaim = false; }},
        {"note 10: no E state",
         [](MoesiPolicy &p) { p.useExclusive = false; }},
        {"note 11: drop on snoop (I, not CH)",
         [](MoesiPolicy &p) { p.dropOnSnoop = true; }},
        {"note 12: E entered as M",
         [](MoesiPolicy &p) { p.exclusiveAsModified = true; }},
        {"notes 9+10+11+12 together",
         [](MoesiPolicy &p) {
             p.useOwnedReclaim = false;
             p.useExclusive = false;
             p.dropOnSnoop = true;
             p.exclusiveAsModified = true;
         }},
    };
    CampaignSpec spec;
    spec.refsPerProc = 10000;
    for (const auto &[name, apply] : ablations) {
        CacheSpec c;
        c.chooser = ChooserKind::Policy;
        apply(c.policy);
        spec.mixes.push_back(mixOf(name, c, 6));
    }
    Arch85Params params;
    params.pShared = 0.08;
    params.pPrivateWrite = 0.4;
    params.privateLines = 96;
    spec.workloads.push_back(
        arch85Workload("arch85", params, inputSeed(1, seed)));

    CampaignSpec variants;
    variants.refsPerProc = 5000;
    for (int v = 0; v < 3; ++v) {
        CacheSpec c;
        c.chooser = ChooserKind::Policy;
        c.policy.missWrite = MoesiPolicy::MissWrite::ReadThenWrite;
        const char *name = "preferred (E)";
        if (v == 1) {
            c.policy.useExclusive = false;
            name = "note 10 (no E)";
        } else if (v == 2) {
            c.policy.exclusiveAsModified = true;
            name = "note 12 (E as M)";
        }
        variants.mixes.push_back(mixOf(name, c, 2, false, 16, 2));
    }
    WorkloadSpec w;
    w.name = "private";
    const std::uint64_t stream_seed = inputSeed(5, seed);
    w.make = [stream_seed](std::size_t proc, std::size_t,
                           std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new PrivateWorkload(32, 64, 0.5, proc, stream_seed));
    };
    variants.workloads.push_back(std::move(w));

    std::vector<Campaign> out;
    out.push_back(timed("P5 ablations", std::move(spec)));
    out.push_back(timed("P5 exclusive variants", std::move(variants)));
    return out;
}

// P6 (perf_cost_sensitivity.cc): update vs invalidate across bus cost
// points, then the intervention-latency sweep.
std::vector<Campaign>
costP6(std::uint64_t seed)
{
    const Cycles mems[] = {2, 6, 16, 32};
    CampaignSpec spec;
    spec.refsPerProc = 8000;
    spec.mixes.push_back(mixOf(
        "update", policySpec(MoesiPolicy::SharedWrite::Broadcast), 6));
    spec.mixes.push_back(
        mixOf("invalidate",
              policySpec(MoesiPolicy::SharedWrite::Invalidate), 6));
    for (Cycles mem : mems) {
        for (Cycles glitch : {0, 4})
            spec.costs.push_back(costPoint(mem, glitch));
    }
    spec.costs.push_back(costPoint(2, 1));
    spec.costs.push_back(costPoint(32, 1));
    Arch85Params params;
    params.pShared = 0.25;
    params.sharedLines = 16;
    params.pSharedWrite = 0.4;
    spec.workloads.push_back(
        arch85Workload("arch85", params, inputSeed(21, seed)));

    CampaignSpec ispec;
    ispec.refsPerProc = 6000;
    ispec.mixes.push_back(mixOf("MOESI", CacheSpec{}, 6));
    for (Cycles mem : mems)
        ispec.costs.push_back(costPoint(mem, 1));
    Arch85Params iparams;
    iparams.pShared = 0.25;
    ispec.workloads.push_back(
        arch85Workload("arch85", iparams, inputSeed(23, seed)));

    std::vector<Campaign> out;
    out.push_back(timed("P6 cost sensitivity", std::move(spec)));
    out.push_back(timed("P6 intervention latency", std::move(ispec)));
    return out;
}

} // namespace

std::vector<Campaign>
arch85Lineup(std::uint64_t seed)
{
    std::vector<Campaign> out;
    out.push_back(protocolsP1(seed));
    out.push_back(lineSizeP3(seed));
    out.push_back(mixedP4(seed));
    for (Campaign &c : ablationP5(seed))
        out.push_back(std::move(c));
    for (Campaign &c : costP6(seed))
        out.push_back(std::move(c));
    return out;
}

std::vector<Campaign>
sharingPatterns()
{
    const std::size_t procs = 6;
    CampaignSpec spec;
    spec.refsPerProc = 8000;
    spec.mixes.push_back(mixOf(
        "update", policySpec(MoesiPolicy::SharedWrite::Broadcast), procs));
    spec.mixes.push_back(
        mixOf("invalidate",
              policySpec(MoesiPolicy::SharedWrite::Invalidate), procs));
    spec.mixes.push_back(mixOf(
        "update+discard", policySpec(MoesiPolicy::SharedWrite::Broadcast),
        procs));
    for (MixSlot &slot : spec.mixes.back().slots)
        slot.cache.discardNearReplacement = true;

    WorkloadSpec pc;
    pc.name = "producer-consumer";
    pc.make = [](std::size_t proc, std::size_t, std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new ProducerConsumerWorkload(32, 4, proc == 0, proc + 1));
    };
    WorkloadSpec rm;
    rm.name = "read-mostly table";
    rm.make = [](std::size_t proc, std::size_t, std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new ReadMostlyWorkload(32, 16, 0.05, proc + 1));
    };
    WorkloadSpec pp;
    pp.name = "migratory ping-pong";
    pp.make = [](std::size_t proc, std::size_t, std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new PingPongWorkload(32, 32, proc, 100 + proc, 8));
    };
    spec.workloads = {pc, rm, pp};

    std::vector<Campaign> out;
    out.push_back(timed("P2 update vs invalidate", std::move(spec)));
    return out;
}

std::vector<TraceRef>
syntheticTrace()
{
    const std::size_t procs = 4;
    const std::size_t refs = 20000;
    Arch85Params params;
    params.pShared = 0.15;
    std::vector<std::unique_ptr<RefStream>> streams =
        makeArch85Streams(params, procs, 7);
    std::vector<TraceRef> trace;
    trace.reserve(refs);
    for (std::size_t i = 0; i < refs; ++i) {
        MasterId proc = static_cast<MasterId>(i % procs);
        ProcRef r = streams[proc]->next();
        trace.push_back({proc, r.write, r.addr});
    }
    return trace;
}

std::vector<Campaign>
faultedReplay(std::shared_ptr<const std::vector<TraceRef>> trace)
{
    // Sharded once here, exactly as the runner shards a trace
    // workload; every stream runs its shortest shard's length, as in
    // trace_driven, so none wraps.
    std::size_t procs = 0;
    for (const TraceRef &r : *trace)
        procs = std::max<std::size_t>(procs, r.proc + 1u);
    auto shards = std::make_shared<const std::vector<std::vector<ProcRef>>>(
        splitTraceByProc(*trace, procs));
    std::uint64_t refs_per_proc = ~std::uint64_t{0};
    for (const std::vector<ProcRef> &shard : *shards)
        refs_per_proc = std::min<std::uint64_t>(refs_per_proc, shard.size());

    // trace_driven --faults: timing faults only, with the
    // quarantine/reintegration ladder armed.
    FaultConfig faults;
    faults.seed = 0xfb51;
    faults.spuriousAbort.probability = 0.05;
    faults.abortStormProb = 0.25;
    faults.abortStormLength = 24;
    faults.memoryDelay.probability = 0.02;
    faults.memoryDrop.probability = 1.0;
    faults.memoryDrop.windowStart = 300;
    faults.memoryDrop.windowEnd = 500;

    auto sweep = [&](const char *name, std::size_t clusters,
                     const std::vector<ProtocolKind> &kinds,
                     const FaultConfig &fc) {
        CampaignSpec spec;
        spec.refsPerProc = refs_per_proc;
        spec.base.maxBusRetries = 4;
        spec.base.watchdogRounds = 2;
        spec.base.quarantineAfterTrips = 1;
        spec.base.reintegrateAfterCycles = 2000;
        spec.hier.maxBusRetries = 64;
        spec.hier.watchdogRounds = 4;
        spec.hier.quarantineAfterTrips = 2;
        spec.hier.reintegrateAfterCycles = 4000;
        spec.hier.scrubEveryAccesses = 512;
        spec.clusters = clusters;
        for (ProtocolKind kind : kinds) {
            CacheSpec cache;
            cache.protocol = kind;
            cache.numSets = 128;
            cache.assoc = 4;
            spec.mixes.push_back(homogeneousMix(
                std::string(protocolKindName(kind)), cache, procs));
        }
        spec.faults.push_back({"timing", fc});
        // The trace replayed shard by shard, like traceWorkload(), but
        // through streams that stamp each job's end.
        auto clock = std::make_shared<JobClock>();
        WorkloadSpec w;
        w.name = "trace";
        w.make = [shards, clock](std::size_t proc, std::size_t,
                                 std::uint64_t job_seed) {
            return std::unique_ptr<RefStream>(new ShardStream(
                (*shards)[proc], proc == 0 ? clock : nullptr, job_seed));
        };
        spec.workloads.push_back(std::move(w));
        return timed(name, std::move(spec), 2, clock);
    };

    FaultConfig bridge_faults = faults;
    bridge_faults.bridgeDrop.probability = 0.02;
    bridge_faults.bridgeDelay.probability = 0.02;
    bridge_faults.bridgeDup.probability = 0.01;
    bridge_faults.filterStale.probability = 0.02;
    bridge_faults.leafStall.probability = 1.0;
    bridge_faults.leafStall.windowStart = 600;
    bridge_faults.leafStall.windowEnd = 680;

    std::vector<Campaign> out;
    out.push_back(sweep("flat faulted sweep", 1,
                        {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                         ProtocolKind::Dragon, ProtocolKind::WriteOnce,
                         ProtocolKind::Illinois, ProtocolKind::Firefly},
                        faults));
    out.back().perfetto = true;
    out.push_back(sweep("hier faulted sweep", 2,
                        {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                         ProtocolKind::Dragon},
                        bridge_faults));
    return out;
}

std::vector<Exploration>
modelCheckSet()
{
    const std::size_t max_nodes = 4194304;
    std::vector<Exploration> out;
    for (ProtocolKind kind : kAllProtocolKinds) {
        Exploration e;
        e.name = strprintf("%s 4x2",
                           std::string(protocolKindName(kind)).c_str());
        e.config.model.tables.assign(4, &protocolTable(kind));
        e.config.model.lines = 2;
        e.config.maxNodes = max_nodes;
        out.push_back(std::move(e));
    }
    const ProtocolKind mixes[][3] = {
        {ProtocolKind::Moesi, ProtocolKind::Berkeley, ProtocolKind::Dragon},
        {ProtocolKind::Moesi, ProtocolKind::Illinois,
         ProtocolKind::Firefly},
        {ProtocolKind::Berkeley, ProtocolKind::Dragon,
         ProtocolKind::Illinois},
        {ProtocolKind::Illinois, ProtocolKind::Firefly,
         ProtocolKind::Moesi},
    };
    for (const auto &mix : mixes) {
        Exploration e;
        for (ProtocolKind kind : mix) {
            e.name += (e.name.empty() ? "" : "+") +
                      std::string(protocolKindName(kind));
            e.config.model.tables.push_back(&protocolTable(kind));
        }
        e.name += " 3x2";
        e.config.model.lines = 2;
        e.config.maxNodes = max_nodes;
        out.push_back(std::move(e));
    }
    return out;
}

std::vector<Campaign>
withOrdering(const std::vector<Campaign> &campaigns,
             EngineOrdering ordering)
{
    std::vector<Campaign> out = campaigns;
    for (Campaign &c : out)
        c.spec.engine.ordering = ordering;
    return out;
}

} // namespace perfbench
