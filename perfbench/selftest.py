#!/usr/bin/env python3
"""Self-tests of the DVMC end-to-end benchmark.

    python3 perfbench/selftest.py

Run from the repository root; builds through perfbench/run.py. Checks that
  * sim_cycles_per_memop, ok_frac and every per-layer count repeat exactly
    across two invocations with the same seed;
  * every metric named in BENCHMARK.json is printed, and the traced layer
    timings are nonzero wherever their layer runs;
  * the traced per-layer times sum to no more than System::run;
  * a repetition with an injected fault drops ok_frac below 1 and makes
    the command fail.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Traced timings and the overhead ratio vary run to run; everything else
# printed by the traced run is a count and must repeat exactly.
TIMED_SUFFIXES = ("ns_per_memop", "ns_per_record", "_ms")
IN_RUN_LAYERS = ("workload.ns_per_memop", "cpu.notify_ns_per_memop",
                 "dvmc.cet_ns_per_memop", "dvmc.met_home_ns_per_memop")
# Layers that must time nonzero on each workload (the rest may not run).
RUNS_ON = {
    "dir-tso-oltp-dvmc": IN_RUN_LAYERS + ("dvmc.drain_ms",),
    "snoop-sc-jbb-base": ("workload.ns_per_memop", "cpu.notify_ns_per_memop"),
    "dir-pso-oltp-verify": ("workload.ns_per_memop", "cpu.notify_ns_per_memop",
                            "verify.stream_ns_per_record"),
}


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("no output from %s:\n%s" % (" ".join(cmd), p.stderr))
    result = json.loads(lines[-1])
    return p.returncode, result, {k: v["value"] for k, v in
                                  result["metrics"].items()}


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def is_count(name):
    return not name.endswith(TIMED_SUFFIXES) and name != "trace.overhead_ratio"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    for w in (x["name"] for x in spec["workloads"]):
        runs = [bench(w, 0) for _ in range(2)]
        for rc, res, m in runs:
            check(rc == 0 and res["correct"] and sorted(m) == sorted(end_to_end),
                  "%s: untraced run passes and prints every end-to-end "
                  "metric" % w)
        for name in ("sim_cycles_per_memop", "ok_frac"):
            check(runs[0][2][name] == runs[1][2][name],
                  "%s: %s repeats exactly" % (w, name))

        traced = [bench(w, 1) for _ in range(2)]
        for rc, res, m in traced:
            check(rc == 0 and res["correct"] and sorted(m) == sorted(per_layer),
                  "%s: traced run passes (its counters equal the untraced "
                  "run's) and prints every per-layer metric" % w)
            in_run = sum(m[k] for k in IN_RUN_LAYERS)
            check(in_run <= m["system.run_ns_per_memop"]
                  and m["system.residual_ns_per_memop"] >= 0,
                  "%s: traced layer times sum to no more than System::run" % w)
            check(all(m[k] > 0 for k in RUNS_ON[w]),
                  "%s: traced timings nonzero where the layer runs" % w)
        a, b = traced[0][2], traced[1][2]
        diff = [k for k in per_layer if is_count(k) and a[k] != b[k]]
        check(not diff, "%s: per-layer counts repeat exactly %s" % (w, diff))

    for w in ("dir-tso-oltp-dvmc", "dir-pso-oltp-verify"):
        rc, res, m = bench(w, 0, "--inject-fault")
        check(rc != 0 and not res["correct"] and res["failed"] >= 1
              and m["ok_frac"] < 1,
              "%s: an injected fault fails its repetition (ok_frac %.3f)"
              % (w, m["ok_frac"]))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
