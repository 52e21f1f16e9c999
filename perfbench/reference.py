#!/usr/bin/env python3
"""Reference figures for perfbench/README.md: repeated runs on this host.

    python3 perfbench/reference.py [--runs 10] [--traced-runs 5] [--seed0 100]
                                   [--workloads NAME ...]

Runs every workload (or those named with --workloads) --runs times
untraced and --traced-runs times traced, each with its own seed, through
perfbench/run.py; traced and untraced runs alternate, so a drift of the host
lands on both. Prints, as markdown, the median and quartiles of every
metric, the spread (quartile distance over median) of each end-to-end metric
next to its bound, and the tracing overhead: the traced runs' end-to-end
medians against the untraced ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d trace %d\n%s" % (workload, seed, trace, out.stderr[-2000:]))
    final = json.loads(lines[-1])
    info = next(l for l in lines if "(informational)" in l)
    other = json.loads(info.split(": ", 1)[1])
    fingerprint = json.loads(next(l for l in lines if l.startswith("fingerprint: "))[13:])
    counts = next(l for l in lines if l.startswith("workload "))
    final["steal"] = float(counts.rsplit(" ", 1)[1].rstrip("%"))
    values = {k: v["value"] for k, v in final["metrics"].items()}
    return values, other, final, fingerprint


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    fingerprint = None
    for w in spec["workloads"]:
        name = w["name"]
        if args.workloads and name not in args.workloads:
            continue
        e2e, layer, traced_e2e = {}, {}, {}
        attempted, failed, steal = [], [], []
        for i in range(max(args.runs, args.traced_runs)):
            if i < args.runs:
                values, _, final, fingerprint = run(name, args.seed0 + i, 0)
                attempted.append(final["attempted"])
                failed.append(final["failed"])
                steal.append(final["steal"])
                for k, v in values.items():
                    e2e.setdefault(k, []).append(v)
            if i < args.traced_runs:
                values, other, _, _ = run(name, args.seed0 + 1000 + i, 1)
                for k, v in values.items():
                    layer.setdefault(k, []).append(v)
                for k, v in other.items():
                    traced_e2e.setdefault(k, []).append(v)
        print("\n### %s\n" % name)
        print("%d untraced runs (operations attempted per run %d-%d, failed %d; host "
              "cpu steal median %.1f%%, max %.1f%%), %d traced runs.\n" %
              (args.runs, min(attempted), max(attempted), max(failed),
               statistics.median(steal), max(steal), args.traced_runs))
        print("| end-to-end metric | median | Q1 | Q3 | spread | bound | traced median | overhead |")
        print("|---|---|---|---|---|---|---|---|")
        for k in [m["name"] for m in spec["end_to_end"]]:
            q1, med, q3 = quartiles(e2e[k])
            traced = "| - | -"
            if traced_e2e:
                tmed = statistics.median(traced_e2e[k])
                traced = "| %s | %+.1f%%" % (fmt(tmed), 100.0 * (tmed - med) / med if med else 0.0)
            print("| %s | %s | %s | %s | %.3f | %.2f %s |" %
                  (k, fmt(med), fmt(q1), fmt(q3), (q3 - q1) / med if med else 0.0,
                   bounds[k], traced))
        if not layer:
            continue
        print("\n| per-layer metric | median | Q1 | Q3 |")
        print("|---|---|---|---|")
        for k in [m["name"] for m in spec["per_layer"]]:
            q1, med, q3 = quartiles(layer[k])
            print("| %s | %s | %s | %s |" % (k, fmt(med), fmt(q1), fmt(q3)))
    print("\nHost: %s" % json.dumps(fingerprint))


if __name__ == "__main__":
    main()
