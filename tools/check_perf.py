#!/usr/bin/env python3
"""Perf-gate comparator for dvmc-bench JSON documents.

Usage:
  check_perf.py BASELINE CURRENT [--max-regression 0.30]
  check_perf.py --rss FILE --rss-ceiling-mb N
  check_perf.py --counts WORKLOAD BASELINE RESULT [RESULT ...]

Both files must follow the "dvmc-bench" schema written by the bench
binaries' --json flag (see bench/bench_common.hpp). For every row name
present in BOTH files, the current events/sec must be at least
(1 - max_regression) times the baseline events/sec; any row below that
threshold fails the gate. Rows only present on one side are reported but
do not fail (benchmarks get added and retired), and the machines running
baseline and current may differ, which is why the default margin is a
deliberately loose 30%.

Rows that carry a counted allocsPerEvent figure (binaries built with the
DVMC_BENCH_ALLOC_HOOK operator-new hook, e.g. bench_micro_sim) are gated
on it too: current allocations per event may not exceed the baseline by
more than --max-alloc-growth. A baseline of exactly 0 is a hard
zero-allocation claim — ANY current allocation in that row fails the
gate, regardless of the growth margin. Unlike throughput, allocation
counts are machine-independent, so this gate is tight by design.

The --rss mode gates the in-process memory sampler instead: FILE is a
dvmc-run-report or dvmc-status document whose "resource" section carries
peakRssBytes (getrusage high-water mark of the producing process); the
gate fails when it exceeds --rss-ceiling-mb. This replaces the old
shell-level getrusage(RUSAGE_CHILDREN) wrapper in CI, which charged every
subprocess in the step to the same ceiling.

The --counts mode gates perfbench's deterministic counts exactly. BASELINE
is a "dvmc-perfbench-counts" document (bench/baseline/perfbench_counts.json)
that maps each workload to metric values; each RESULT is the JSON line
perfbench/run.py prints last. Every baseline metric of WORKLOAD must appear
in some RESULT with exactly the baseline value, and every RESULT must be
correct. The counts depend only on the seed, the program and the C++
standard library it links, so on one toolchain any difference is a change
in the simulated machine or in the host's allocations; a change that
means to move them records the new values and says why.

Exit status: 0 = within budget, 1 = regression/breach, 2 = bad input.
"""

import argparse
import json
import sys


def read_json(path):
    """The parsed document, or None after reporting why it is unreadable."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return None


def check_rss(path, ceiling_mb):
    doc = read_json(path)
    if doc is None:
        return 2
    resource = doc.get("resource")
    # Accept both the nested v2 report/status layout and a bare
    # {"peakRssBytes"/"peak_rss_bytes": N} document.
    holder = resource if isinstance(resource, dict) else doc
    peak = holder.get("peakRssBytes", holder.get("peak_rss_bytes"))
    if not isinstance(peak, (int, float)) or peak <= 0:
        print(f"error: {path}: no peakRssBytes in the resource section",
              file=sys.stderr)
        return 2
    peak_mb = peak / (1024 * 1024)
    if peak_mb > ceiling_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MB exceeds the "
              f"{ceiling_mb} MB ceiling", file=sys.stderr)
        return 1
    print(f"OK: peak RSS {peak_mb:.1f} MB within the {ceiling_mb} MB ceiling")
    return 0


def check_counts(workload, baseline_path, result_paths):
    base = read_json(baseline_path)
    if base is None:
        return 2
    if base.get("schema") != "dvmc-perfbench-counts":
        print(f"error: {baseline_path}: schema is {base.get('schema')!r}, "
              "expected 'dvmc-perfbench-counts'", file=sys.stderr)
        return 2
    expected = base.get("workloads", {}).get(workload)
    if not isinstance(expected, dict) or not expected:
        print(f"error: {baseline_path}: no counts for workload {workload!r}",
              file=sys.stderr)
        return 2
    got = {}
    for path in result_paths:
        doc = read_json(path)
        if doc is None:
            return 2
        if doc.get("correct") is not True:
            print(f"FAIL: {path}: perfbench run is not correct "
                  f"({doc.get('failed')} of {doc.get('attempted')} "
                  "repetitions failed)", file=sys.stderr)
            return 1
        for name, metric in doc.get("metrics", {}).items():
            got[name] = metric.get("value")
    width = max(len(n) for n in expected)
    mismatches = []
    print(f"{workload}: {'metric':<{width}}  {'baseline':>22}  "
          f"{'current':>22}")
    for name in sorted(expected):
        want, have = expected[name], got.get(name)
        verdict = "" if have == want else "  MISMATCH"
        if have != want:
            mismatches.append(name)
        print(f"{workload}: {name:<{width}}  {want!r:>22}  {have!r:>22}"
              f"{verdict}")
    if mismatches:
        print(f"\nFAIL: {workload}: {len(mismatches)} count(s) differ from "
              f"{baseline_path}: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    print(f"\nOK: {workload}: all {len(expected)} counts match exactly")
    return 0


def load_rows(path):
    doc = read_json(path)
    if doc is None:
        sys.exit(2)
    if doc.get("schema") != "dvmc-bench":
        print(f"error: {path}: schema is {doc.get('schema')!r}, "
              "expected 'dvmc-bench'", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in doc.get("results", []):
        name = row.get("name")
        eps = row.get("eventsPerSec", 0)
        if not name or not isinstance(eps, (int, float)) or eps <= 0:
            print(f"error: {path}: malformed row {row!r}", file=sys.stderr)
            sys.exit(2)
        allocs = row.get("allocsPerEvent")
        if allocs is not None and (not isinstance(allocs, (int, float))
                                   or allocs < 0):
            print(f"error: {path}: malformed allocsPerEvent in {row!r}",
                  file=sys.stderr)
            sys.exit(2)
        # Same name measured twice (e.g. repeated configs): keep the best
        # of each column, matching how a human would read the table.
        if name in rows:
            prev_eps, prev_allocs = rows[name]
            eps = max(prev_eps, eps)
            if allocs is None:
                allocs = prev_allocs
            elif prev_allocs is not None:
                allocs = min(prev_allocs, allocs)
        rows[name] = (eps, allocs)
    if not rows:
        print(f"error: {path}: no result rows", file=sys.stderr)
        sys.exit(2)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="*",
                    help="one CURRENT file; with --counts, the RESULT files")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="allowed fractional slowdown (default 0.30)")
    ap.add_argument("--max-alloc-growth", type=float, default=0.10,
                    help="allowed fractional growth in allocsPerEvent for "
                         "rows that count it; a baseline of 0 always means "
                         "zero allocations allowed (default 0.10)")
    ap.add_argument("--rss", metavar="FILE",
                    help="gate peakRssBytes from a run-report/status file "
                         "instead of comparing benchmarks")
    ap.add_argument("--rss-ceiling-mb", type=float, default=256,
                    help="peak-RSS ceiling for --rss mode (default 256)")
    ap.add_argument("--counts", metavar="WORKLOAD",
                    help="compare WORKLOAD's perfbench counts in the RESULT "
                         "files exactly against the BASELINE counts file")
    args = ap.parse_args()

    if args.rss:
        if args.baseline or args.current:
            ap.error("--rss mode takes no baseline/current arguments")
        return check_rss(args.rss, args.rss_ceiling_mb)
    if args.counts:
        if not args.baseline or not args.current:
            ap.error("--counts needs BASELINE and at least one RESULT")
        return check_counts(args.counts, args.baseline, args.current)
    if not args.baseline or len(args.current) != 1:
        ap.error("baseline and one current file are required without --rss")

    base = load_rows(args.baseline)
    cur = load_rows(args.current[0])
    floor = 1.0 - args.max_regression

    failures = []
    alloc_failures = []

    def alloc_cell(allocs):
        return "--" if allocs is None else f"{allocs:.6g}"

    width = max(len(n) for n in sorted(set(base) | set(cur)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>6}  {'allocs/evt':>10}")
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            eps, allocs = cur[name]
            print(f"{name:<{width}}  {'--':>12}  {eps:>12.3e}  "
                  f"{'(new)':>6}  {alloc_cell(allocs):>10}")
            continue
        if name not in cur:
            eps, allocs = base[name]
            print(f"{name:<{width}}  {eps:>12.3e}  {'--':>12}  "
                  f"{'(gone)':>6}  {alloc_cell(allocs):>10}")
            continue
        base_eps, base_allocs = base[name]
        cur_eps, cur_allocs = cur[name]
        ratio = cur_eps / base_eps
        verdict = "" if ratio >= floor else "  REGRESSION"
        if ratio < floor:
            failures.append((name, ratio))
        if base_allocs is not None and cur_allocs is not None:
            # Baseline 0 is a zero-allocation claim: no growth margin.
            allowed = base_allocs * (1.0 + args.max_alloc_growth)
            if cur_allocs > allowed:
                alloc_failures.append((name, base_allocs, cur_allocs))
                verdict += "  ALLOC-REGRESSION"
        print(f"{name:<{width}}  {base_eps:>12.3e}  {cur_eps:>12.3e}  "
              f"{ratio:5.2f}x  {alloc_cell(cur_allocs):>10}{verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} row(s) regressed more than "
              f"{args.max_regression:.0%}:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x of baseline", file=sys.stderr)
    if alloc_failures:
        print(f"\nFAIL: {len(alloc_failures)} row(s) allocate more per "
              "event than the baseline allows:", file=sys.stderr)
        for name, base_allocs, cur_allocs in alloc_failures:
            claim = (" (baseline claims zero allocations)"
                     if base_allocs == 0 else "")
            print(f"  {name}: {cur_allocs:.6g} vs baseline "
                  f"{base_allocs:.6g}{claim}", file=sys.stderr)
    if failures or alloc_failures:
        return 1
    print(f"\nOK: all shared rows within {args.max_regression:.0%} "
          "of baseline (and no allocation regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
