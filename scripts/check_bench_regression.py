#!/usr/bin/env python3
"""Fail if a guarded benchmark row regressed against a baseline.

Usage:
    check_bench_regression.py MEASURED_JSON [--record BASELINE_JSON]
        [--bench ROW]... [--tolerance 0.10]

MEASURED_JSON is google-benchmark --benchmark_format=json output run
with --benchmark_repetitions; for every guarded row the median across
repetitions is compared against the baseline.  The baseline (--record,
default BENCH_micro.json) is either a committed record, whose
optimized_ns entry is used, or another google-benchmark JSON
(recognised by its "benchmarks" key), whose per-row median is used -
e.g. the base commit's micro_engine run in the same session, so both
sides see the same machine load.  --bench is repeatable; without it
the default guarded set below is enforced.  Exits non-zero when any
measured median exceeds its baseline by more than the tolerance.
"""

import argparse
import json
import statistics
import sys

# Rows enforced when no --bench is given.  BM_EngineThroughput/8 is the
# engine's interleaved loop with its fused hit probe on the
# 8-processor Arch85 workload, mostly private hits;
# BM_ProducerConsumerInvalidate/6 is experiment P2's
# producer-consumer/invalidate job, where shared writes put the work
# on the bus; BM_McExploreMoesi4x2 pins the model checker's
# allocation-free transition loop; BM_Arch85Generate times the Arch85
# reference generator's 64-reference batch (its branch-free geometric
# locality draw).
DEFAULT_GUARDED = [
    "BM_EngineThroughput/8",
    "BM_ProducerConsumerInvalidate/6",
    "BM_McExploreMoesi4x2",
    "BM_Arch85Generate",
]


def measured_median(report, bench, what="measured report"):
    # With --benchmark_repetitions google-benchmark emits one entry
    # per repetition plus _mean/_median/_stddev aggregates; prefer its
    # own median aggregate, fall back to computing one.
    times = []
    for b in report["benchmarks"]:
        if b["name"] == f"{bench}_median":
            return float(b["real_time"])
        if b["name"] == bench and b.get("run_type", "iteration") != "aggregate":
            times.append(float(b["real_time"]))
    if not times:
        sys.exit(f"error: benchmark {bench!r} not found in {what}")
    return statistics.median(times)


def baseline_ns(record, bench):
    """The row's baseline time, or None when the record lacks it."""
    if "benchmarks" in record:
        return measured_median(record, bench, "baseline report")
    return record["optimized_ns"].get(bench)


def check_row(report, record, bench, tolerance):
    """Returns an error string, or None when the row is within bounds."""
    base = baseline_ns(record, bench)
    if base is None:
        return (f"error: {bench!r} has no optimized_ns entry "
                f"in the record")

    measured = measured_median(report, bench)
    ratio = measured / base
    limit = 1.0 + tolerance
    print(f"{bench}: measured median {measured:.0f} ns, "
          f"baseline {base:.0f} ns ({ratio:.2f}x, "
          f"limit {limit:.2f}x)")
    if ratio > limit:
        return (f"{bench} regressed {(ratio - 1.0) * 100:.1f}% > "
                f"{tolerance * 100:.0f}% tolerance")
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("measured", help="google-benchmark JSON output")
    ap.add_argument("--record", default="BENCH_micro.json",
                    help="committed record or google-benchmark JSON")
    ap.add_argument("--bench", action="append", dest="benches",
                    metavar="ROW",
                    help="row to enforce (repeatable; default: the "
                         "committed guarded set)")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    with open(args.measured) as f:
        report = json.load(f)
    with open(args.record) as f:
        record = json.load(f)

    failures = []
    for bench in args.benches or DEFAULT_GUARDED:
        err = check_row(report, record, bench, args.tolerance)
        if err is not None:
            failures.append(err)

    if failures:
        sys.exit("FAIL: " + "; ".join(failures))
    print("OK")


if __name__ == "__main__":
    main()
