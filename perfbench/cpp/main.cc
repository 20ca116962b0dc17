/**
 * @file
 * fbsim end-to-end benchmark.
 *
 * Usage:
 *   fbsim_perfbench --workload NAME [--seed N] [--seconds S]
 *                   [--trace 0|1] [--trace-out spans.json]
 *
 * Workloads: arch85_lineup, sharing_patterns, faulted_replay,
 * model_check (perfbench/NOTES.md says what each one measures and
 * why).  A run sets its inputs up several times (each set-up ends
 * with a warm-up pass), checks the output oracle once outside the
 * timed window, then runs whole passes until --seconds have passed.
 * With --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * alternates untraced and traced passes and reports the per-layer
 * metrics, writing its spans to --trace-out.  The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.h"
#include "common/logging.h"
#include "passes.h"
#include "spans.h"
#include "trace/trace_io.h"
#include "workloads.h"

using namespace perfbench;
using fbsim::CampaignReport;
using fbsim::EngineOrdering;

namespace {

const char *const kWorkloads[] = {"arch85_lineup", "sharing_patterns",
                                  "faulted_replay", "model_check"};

struct Args
{
    std::string workload;
    std::uint64_t seed = kBenchSeed;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag.c_str());
            return false;
        }
        const char *value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            a.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", flag.c_str());
            return false;
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  a.workload) == std::end(kWorkloads)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     a.workload.c_str());
        return false;
    }
    if (!(a.seconds > 0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return false;
    }
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile with at least 10 samples beyond it: the
 *  11th-largest sample (the maximum when there are fewer than 11). */
double
tail(std::vector<double> v, double *percentile)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t k = n > 10 ? n - 11 : (n ? n - 1 : 0);
    *percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                               static_cast<double>(n)
                         : 100.0;
    return n ? v[k] : 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
loadAverage()
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        return "unavailable";
    return fbsim::strprintf("%.2f %.2f %.2f", load[0], load[1], load[2]);
}

/** Everything a workload needs before its first pass. */
struct Inputs
{
    std::vector<Campaign> campaigns;
    std::vector<Exploration> explorations;
    std::size_t traceRefs = 0;
    bool roundTripOk = true;
};

Inputs
makeInputs(const Args &a, SpanLog &log, std::size_t parent)
{
    Inputs in;
    if (a.workload == "arch85_lineup") {
        in.campaigns = arch85Lineup(a.seed);
    } else if (a.workload == "sharing_patterns") {
        in.campaigns = sharingPatterns();
    } else if (a.workload == "faulted_replay") {
        std::vector<fbsim::TraceRef> trace;
        {
            Span gen(log, "trace.gen", parent);
            trace = syntheticTrace();
        }
        std::string text;
        {
            Span write(log, "trace.write", parent);
            std::ostringstream os;
            fbsim::writeTrace(os, trace);
            text = os.str();
        }
        std::string error;
        auto parsed = std::make_shared<std::vector<fbsim::TraceRef>>();
        {
            Span parse(log, "trace.parse", parent);
            *parsed = fbsim::parseTrace(text, &error);
        }
        in.roundTripOk = error.empty() && *parsed == trace;
        in.traceRefs = parsed->size();
        in.campaigns = faultedReplay(parsed);
    } else {
        in.explorations = modelCheckSet();
    }
    return in;
}

PassResult
runPass(Inputs &in, SpanLog &log, std::size_t parent,
        const std::vector<std::uint64_t> *reference,
        std::vector<CampaignReport> *reports = nullptr,
        fbsim::mc::ExploreResult *first_result = nullptr)
{
    if (!in.explorations.empty())
        return runExplorations(in.explorations, log, parent, reference,
                               first_result);
    return runCampaigns(in.campaigns, log, parent, reference, reports);
}

/** The oracle must notice a report that differs in one counter or in
 *  one job's verdict, and an exploration whose graph changed. */
bool
oracleSelfTest(const Inputs &in, const std::vector<std::uint64_t> &ref,
               const CampaignReport &report,
               const fbsim::mc::ExploreResult &explored)
{
    if (!in.explorations.empty()) {
        if (digestExploration(explored) != ref.front())
            return false;
        fbsim::mc::ExploreResult altered = explored;
        altered.edgeFingerprint ^= 1;
        return digestExploration(altered) != ref.front();
    }
    if (report.results.empty() || digestReport(report) != ref.front())
        return false;
    CampaignReport counter = report;
    std::vector<fbsim::MetricEntry> &entries =
        counter.results.back().metrics.entries;
    if (entries.empty())
        return false;
    entries.front().value += 1;
    CampaignReport verdict = report;
    verdict.results.front().consistent = false;
    verdict.results.front().violations.push_back("self-test");
    return digestReport(counter) != ref.front() &&
           digestReport(verdict) != ref.front();
}

/**
 * Calibration runs in time order.  Each measurement is bracketed by
 * the previous run and a fresh one; its host seconds times the
 * returned factor are reference seconds.
 */
class Calibrator
{
  public:
    Calibrator() { restart(); }

    /** Factor for what ran since the previous run. */
    double
    scaleSinceLast()
    {
        const double before = runs_.back();
        runs_.push_back(calibrate());
        return kReferenceSeconds / (0.5 * (before + runs_.back()));
    }

    /** New bracket start, after work that is not measured. */
    void restart() { runs_.push_back(calibrate()); }

    const std::vector<double> &runs() const { return runs_; }

  private:
    std::vector<double> runs_;
};

/** The set-ups of a run, and the reference every pass must match. */
struct SetUp
{
    Inputs inputs;
    std::vector<std::uint64_t> reference;
    std::vector<CampaignReport> strictReports;
    fbsim::mc::ExploreResult firstExploration;
    std::vector<double> raw;       ///< host seconds per set-up
    std::vector<double> seconds;   ///< the same at reference speed
    std::vector<double> genS, parseS;
    bool ok = true;
};

/** Input generation plus one warm-up pass, at least 3 times and for
 *  at least 1.5 s.  The first warm-up fixes the reference digests. */
SetUp
setUp(const Args &a, SpanLog &log, Calibrator &cal)
{
    SetUp out;
    const Clock::time_point start = Clock::now();
    do {
        Span setup(log, "setup");
        const std::size_t mark = log.size();
        out.inputs = makeInputs(a, log, setup.id());
        PassResult warm = runPass(
            out.inputs, log, setup.id(),
            out.reference.empty() ? nullptr : &out.reference,
            &out.strictReports, &out.firstExploration);
        out.raw.push_back(setup.close());
        const double scale = cal.scaleSinceLast();
        out.seconds.push_back(scale * out.raw.back());
        out.genS.push_back(scale * log.seconds("trace.gen", mark));
        out.parseS.push_back(scale * log.seconds("trace.parse", mark));
        if (out.reference.empty())
            out.reference = warm.digests;
        if (warm.digests != out.reference || !out.inputs.roundTripOk) {
            std::printf("oracle: set-up %zu differs from the first "
                        "(trace round trip %s)\n",
                        out.raw.size(),
                        out.inputs.roundTripOk ? "ok" : "FAILED");
            out.ok = false;
        }
    } while (out.raw.size() < 100 &&
             (out.raw.size() < 3 ||
              secondsBetween(start, Clock::now()) < 1.5));
    return out;
}

/** Strict and Interleaved ordering must render the same campaigns. */
bool
orderingsAgree(const SetUp &set, SpanLog &log)
{
    if (set.inputs.campaigns.empty())
        return true;
    Span oracle(log, "oracle.interleaved");
    std::vector<Campaign> interleaved =
        withOrdering(set.inputs.campaigns, EngineOrdering::Interleaved);
    std::vector<CampaignReport> reports;
    runCampaigns(interleaved, log, oracle.id(), nullptr, &reports);
    bool agree = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const std::uint64_t s = digestOrderingFree(set.strictReports[i]);
        const std::uint64_t n = digestOrderingFree(reports[i]);
        std::printf("oracle: %-26s strict %016llx interleaved %016llx "
                    "%s\n",
                    interleaved[i].name.c_str(),
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(n),
                    s == n ? "match" : "MISMATCH");
        agree = agree && s == n;
    }
    return agree;
}

/** Host-time samples of one traced pass, per layer, at reference
 *  speed. */
struct LayerTimes
{
    double simRun = 0, simBuild = 0, hierRun = 0, verify = 0;
    double campaignRun = 0, render = 0, exportS = 0, explore = 0;
    double busyFrac = 0, sinkCost = 0;
};

/** The timed window: untraced passes, and with tracing a traced pass
 *  plus the layer decomposition after each. */
struct Passes
{
    std::vector<PassResult> plain, traced;
    std::vector<double> plainScale, tracedScale;
    std::vector<LayerTimes> layers;
};

Passes
timedPasses(const Args &a, SetUp &set, SpanLog &log, Calibrator &cal)
{
    Passes out;
    SpanLog quiet(false);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    cal.restart();
    do {
        out.plain.push_back(
            runPass(set.inputs, quiet, SpanLog::kNone, &set.reference));
        out.plainScale.push_back(cal.scaleSinceLast());
        if (!a.trace)
            continue;

        const std::size_t mark = log.size();
        Span pass(log, "pass");
        out.traced.push_back(
            runPass(set.inputs, log, pass.id(), &set.reference));
        pass.close();
        const double scale = cal.scaleSinceLast();
        out.tracedScale.push_back(scale);

        Span extra(log, "layer.decompose");
        decomposeJobs(set.inputs.campaigns, log, extra.id());
        std::vector<double> attached, detached;
        for (const Campaign &c : set.inputs.campaigns) {
            if (!c.perfetto)
                continue;
            attached.push_back(timeDesignatedJob(c, true, log, extra.id()));
            detached.push_back(
                timeDesignatedJob(c, false, log, extra.id()));
        }
        extra.close();
        cal.restart();

        LayerTimes t;
        t.simRun = scale * log.seconds("sim.run", mark);
        t.simBuild = scale * log.seconds("sim.build", mark);
        t.hierRun = scale * log.seconds("hier.run", mark);
        t.verify = scale * log.seconds("checker.verify", mark);
        t.campaignRun = scale * log.seconds("campaign.run", mark);
        t.render = scale * log.seconds("text.render", mark);
        t.exportS = scale * log.seconds("obs.export", mark);
        t.explore = scale * log.seconds("mc.explore", mark);
        t.busyFrac = ratio(out.traced.back().busySeconds,
                           out.traced.back().heldSeconds);
        t.sinkCost = ratio(median(attached), median(detached));
        out.layers.push_back(t);
    } while (Clock::now() < deadline);
    return out;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::string json = fbsim::strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        json += fbsim::strprintf("%s\"%s\": {\"value\": %.17g, "
                                 "\"unit\": \"%s\"}",
                                 i ? ", " : "", metrics[i].name.c_str(),
                                 v, metrics[i].unit);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
printJobs(const PassResult &pass)
{
    std::printf("\nper-job work (first traced pass):\n");
    std::printf("  %-24s %-44s %9s %10s %10s %9s %12s %s\n", "campaign",
                "job", "host_ms", "refs", "spec_refs", "rollbacks",
                "rolled_back", "ok");
    std::map<std::string, Counters> totals;
    std::vector<std::string> order;
    for (const JobRow &r : pass.rows) {
        std::printf("  %-24s %-44s %9.2f %10llu %10llu %9llu %12llu %s\n",
                    r.campaign.c_str(), r.label.c_str(), r.ms,
                    static_cast<unsigned long long>(r.refs),
                    static_cast<unsigned long long>(r.specRefs),
                    static_cast<unsigned long long>(r.rollbacks),
                    static_cast<unsigned long long>(r.rolledBackRefs),
                    r.ok ? "yes" : "NO");
        if (!totals.count(r.campaign))
            order.push_back(r.campaign);
        Counters &t = totals[r.campaign];
        t.refs += r.refs;
        t.specRefs += r.specRefs;
        t.rollbacks += r.rollbacks;
        t.rolledBackRefs += r.rolledBackRefs;
    }
    std::printf("per-campaign totals:\n");
    for (const std::string &name : order) {
        const Counters &t = totals[name];
        std::printf("  %-24s refs %llu spec_refs %llu rollbacks %llu "
                    "rolled_back_refs %llu\n",
                    name.c_str(), static_cast<unsigned long long>(t.refs),
                    static_cast<unsigned long long>(t.specRefs),
                    static_cast<unsigned long long>(t.rollbacks),
                    static_cast<unsigned long long>(t.rolledBackRefs));
    }
}

std::vector<Metric>
endToEndMetrics(const SetUp &set, const Passes &p)
{
    // Medians over the passes, at reference speed.  Jobs sit at the
    // same position in every pass; a job's time is its median over
    // the passes.
    std::vector<double> rate, raw;
    std::vector<std::vector<double>> samples(p.plain.front().jobMs.size());
    for (std::size_t i = 0; i < p.plain.size(); ++i) {
        const PassResult &pass = p.plain[i];
        rate.push_back(ratio(static_cast<double>(pass.events),
                             p.plainScale[i] * pass.seconds));
        raw.push_back(pass.seconds);
        for (std::size_t j = 0; j < samples.size(); ++j)
            samples[j].push_back(p.plainScale[i] * pass.jobMs[j]);
    }
    std::vector<double> job_ms;
    for (const std::vector<double> &s : samples)
        job_ms.push_back(median(s));
    double pct = 0;
    const double tail_ms = tail(job_ms, &pct);

    std::printf("%s: %.6g 1/s at reference speed (events_per_s), %.6g "
                "1/s raw\n",
                set.inputs.explorations.empty() ? "refs_per_s"
                                                : "transitions_per_s",
                median(rate),
                ratio(static_cast<double>(p.plain.front().events),
                      median(raw)));
    const std::size_t at = static_cast<std::size_t>(
        std::find(job_ms.begin(), job_ms.end(), tail_ms) - job_ms.begin());
    const JobRow &row = p.plain.front().rows[at];
    std::printf("job_tail_ms: p%.2f of %zu per-job median times, set by "
                "%s / %s\n",
                pct, job_ms.size(), row.campaign.c_str(), row.label.c_str());
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"events_per_s", median(rate), "1/s"},
        {"job_p50_ms", median(job_ms), "ms"},
        {"job_tail_ms", tail_ms, "ms"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"setup_s", median(set.seconds), "s"},
    };
}

std::vector<Metric>
layerMetrics(const SetUp &set, const Passes &p)
{
    auto layer = [&p](double LayerTimes::*field) {
        std::vector<double> v;
        for (const LayerTimes &t : p.layers)
            v.push_back(t.*field);
        return median(v);
    };
    std::vector<double> plain, traced;
    for (std::size_t i = 0; i < p.plain.size(); ++i)
        plain.push_back(p.plainScale[i] * p.plain[i].seconds);
    for (std::size_t i = 0; i < p.traced.size(); ++i)
        traced.push_back(p.tracedScale[i] * p.traced[i].seconds);
    const Counters &c = p.traced.front().counters;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double refs = count(c.refs);
    const double parse = median(set.parseS);
    return {
        {"sim.run_s", layer(&LayerTimes::simRun), "s"},
        {"sim.build_s", layer(&LayerTimes::simBuild), "s"},
        {"sim.refs", refs, "count"},
        {"sim.spec_batches", count(c.specBatches), "count"},
        {"sim.spec_refs", count(c.specRefs), "count"},
        {"sim.spec_commit_frac", ratio(count(c.specRefs), refs), "ratio"},
        {"sim.rollbacks", count(c.rollbacks), "count"},
        {"sim.rolled_back_refs", count(c.rolledBackRefs), "count"},
        {"sim.replay_amp", ratio(count(c.rolledBackRefs), refs), "ratio"},
        {"sim.bus_wait_cycles", count(c.busWaitCycles), "cycles"},
        {"bus.transactions", count(c.transactions), "count"},
        {"bus.aborts", count(c.aborts), "count"},
        {"bus.line_pushes", count(c.linePushes), "count"},
        {"bus.interventions", count(c.interventions), "count"},
        {"bus.broadcast_writes", count(c.broadcastWrites), "count"},
        {"bus.snoops_invoked", count(c.snoopsInvoked), "count"},
        {"bus.snoops_suppressed", count(c.snoopsSuppressed), "count"},
        {"bus.filter_skip_frac",
         ratio(count(c.snoopsSuppressed),
               count(c.snoopsInvoked + c.snoopsSuppressed)),
         "ratio"},
        {"cache.accesses", count(c.accesses), "count"},
        {"cache.hit_frac", ratio(count(c.hits), count(c.accesses)),
         "ratio"},
        {"cache.misses", count(c.misses), "count"},
        {"cache.evictions", count(c.evictions), "count"},
        {"cache.invalidations_recv", count(c.invalidationsRecv), "count"},
        {"cache.updates_recv", count(c.updatesRecv), "count"},
        {"cache.abort_pushes", count(c.abortPushes), "count"},
        {"checker.verify_s", layer(&LayerTimes::verify), "s"},
        {"checker.violations", count(c.violations), "count"},
        {"campaign.run_s", layer(&LayerTimes::campaignRun), "s"},
        {"campaign.jobs", count(c.jobs), "count"},
        {"campaign.worker_busy_frac", layer(&LayerTimes::busyFrac),
         "ratio"},
        {"trace.gen_s", median(set.genS), "s"},
        {"trace.parse_s", parse, "s"},
        {"trace.parse_ns_per_ref",
         ratio(1e9 * parse, static_cast<double>(set.inputs.traceRefs)),
         "ns"},
        {"obs.export_s", layer(&LayerTimes::exportS), "s"},
        {"obs.trace_events", count(c.traceEvents), "count"},
        {"obs.trace_cost_ratio", layer(&LayerTimes::sinkCost), "ratio"},
        {"text.render_s", layer(&LayerTimes::render), "s"},
        {"fault.injected", count(c.faultsInjected), "count"},
        {"fault.retry_exhausted", count(c.retryExhausted), "count"},
        {"fault.watchdog_trips", count(c.watchdogTrips), "count"},
        {"fault.quarantines", count(c.quarantines), "count"},
        {"fault.reintegrations", count(c.reintegrations), "count"},
        {"hier.run_s", layer(&LayerTimes::hierRun), "s"},
        {"hier.salvage_serves", count(c.salvageServes), "count"},
        {"hier.scrub_divergence", count(c.scrubDivergence), "count"},
        {"mc.explore_s", layer(&LayerTimes::explore), "s"},
        {"mc.states", count(c.states), "count"},
        {"mc.transitions", count(c.transitions), "count"},
        {"bench.trace_overhead_ratio", ratio(median(traced), median(plain)),
         "ratio"},
    };
}

bool
writeSpans(const SpanLog &log, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = log.render();
    const bool written =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && written;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME [--seed N] [--seconds S] "
                     "[--trace 0|1] [--trace-out spans.json]\n",
                     argv[0]);
        return 2;
    }
    // One line per warning site is enough; the fault ladder warns on
    // every exhausted retry.
    fbsim::setWarnSiteLimit(1);

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0);
    std::printf("machine: nproc %ld, load average at start %s, build "
                "type %s\n",
                sysconf(_SC_NPROCESSORS_ONLN), loadAverage().c_str(),
                PERFBENCH_BUILD_TYPE);

    SpanLog log(a.trace);
    Calibrator cal;
    SetUp set = setUp(a, log, cal);
    std::printf("setup: %zu repetitions, median %.4f s (%.4f s at "
                "reference speed)\n",
                set.raw.size(), median(set.raw), median(set.seconds));
    bool correct = set.ok && orderingsAgree(set, log);
    const bool self_test = oracleSelfTest(
        set.inputs, set.reference,
        set.strictReports.empty() ? CampaignReport{}
                                  : set.strictReports.front(),
        set.firstExploration);
    std::printf("oracle self-test: an altered report is %s\n",
                self_test ? "flagged" : "NOT flagged");
    correct = correct && self_test;

    const Passes p = timedPasses(a, set, log, cal);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> raw;
    for (const PassResult &pass : p.plain) {
        attempted += pass.attempted;
        failed += pass.failed;
        raw.push_back(pass.seconds);
    }
    for (const PassResult &pass : p.traced) {
        attempted += pass.attempted;
        failed += pass.failed;
    }
    std::printf("passes: %zu untraced, %zu traced; untraced median %.4f "
                "s raw\n",
                p.plain.size(), p.traced.size(), median(raw));
    for (const JobRow &r : p.plain.front().rows) {
        if (!r.ok)
            std::printf("failed operation: %s / %s: %s\n",
                        r.campaign.c_str(), r.label.c_str(),
                        r.note.c_str());
    }
    std::printf("operations: attempted %llu failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("calibration: %zu runs, median %.2f ms (reference %.2f "
                "ms)\n",
                cal.runs().size(), 1e3 * median(cal.runs()),
                1e3 * kReferenceSeconds);
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(digestOf(set.reference)));
    std::printf("machine: load average at end %s\n",
                loadAverage().c_str());

    if (!a.trace) {
        printResult(correct, attempted, failed, endToEndMetrics(set, p));
        return 0;
    }
    printJobs(p.traced.front());
    if (!a.traceOut.empty()) {
        const bool written = writeSpans(log, a.traceOut);
        std::printf("spans: %zu %s %s\n", log.size(),
                    written ? "written to" : "could not be written to",
                    a.traceOut.c_str());
        correct = correct && written;
    }
    printResult(correct, attempted, failed, layerMetrics(set, p));
    return 0;
}
