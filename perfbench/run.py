#!/usr/bin/env python3
"""Repository benchmark: builds mics_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

The first form builds (Release, into .bench_build/perfbench under the
checkout) when needed, runs the workload, prints the host fingerprint with
the operation counts, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--check is the short mode: every workload runs for about a second with all
of its correctness checks, and the metric names the program prints are
compared with BENCHMARK.json in both groups.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "mics_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "mics_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the tree by the content of what is built.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return None


def run_binary(workload, seed, seconds, trace, quick=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", WORK_DIR]
    if quick:
        cmd.append("--quick")
    before = cpu_ticks()
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if not lines:
        log("%s printed no result (exit code %d)" % (workload, out.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("%s printed a malformed result line" % workload)
        return None
    result["exit_code"] = out.returncode
    after = cpu_ticks()
    if before and after and after[1] > before[1]:
        # Time the hypervisor ran something else on this VM's CPUs: the
        # main source of run-to-run spread of wall-clock figures on a shared
        # host (README.md).
        result["host_steal"] = (after[0] - before[0]) / (after[1] - before[1])
    return result


def name_mismatch(spec, result):
    """Differences between the metric names printed and BENCHMARK.json."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        want = {m["name"] for m in spec[group]}
        got = set(result.get(group, {}))
        if want - got:
            problems.append("%s missing %s" % (group, sorted(want - got)))
        if got - want:
            problems.append("%s not in BENCHMARK.json %s" % (group, sorted(got - want)))
    return problems


def check_mode(spec):
    ok = True
    for w in spec["workloads"]:
        result = run_binary(w["name"], 1, 1.5, True, quick=True)
        if result is None:
            ok = False
            continue
        problems = name_mismatch(spec, result)
        verdict = "ok" if result["correct"] and not problems else "FAILED"
        print("%-26s %s: %d checks, %d operations, %d failed" %
              (w["name"], verdict, result["checks"], result["attempted"], result["failed"]))
        for p in problems + result.get("check_failures", []):
            print("    " + p)
        ok = ok and verdict == "ok"
    print("short mode: %s" % ("all workloads correct, metric names match BENCHMARK.json"
                              if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="short mode: every workload's checks plus the metric-name check")
    args = ap.parse_args()

    spec = load_spec()
    if not build():
        log("build failed")
        return 1
    if args.check:
        return check_mode(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("--workload must be one of %s" % names)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    result = run_binary(args.workload, args.seed, seconds, args.trace == 1)
    if result is None:
        return 1
    problems = name_mismatch(spec, result)
    for p in problems:
        log("metric names differ from BENCHMARK.json: " + p)
    for m in result.get("check_failures", []):
        log("check failed: " + m)
    group = "per_layer" if args.trace == 1 else "end_to_end"
    other = "end_to_end" if args.trace == 1 else "per_layer"
    values = result[group]
    if problems or any(v is None for v in values.values()):
        return 1

    fingerprint = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernels": result["kernels"],
        "build_type": result["build_type"],
        "revision": source_revision(),
    }
    print("fingerprint: " + json.dumps(fingerprint))
    print("workload %s seed %d: attempted %d, failed %d, checks %d, host cpu steal %.1f%%" %
          (args.workload, args.seed, result["attempted"], result["failed"], result["checks"],
           100.0 * result.get("host_steal", 0.0)))
    print("%s (informational): %s" % (other, json.dumps(result[other], sort_keys=True)))
    units = {m["name"]: m["unit"] for m in spec[group]}
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }
    print(json.dumps(final), flush=True)
    return 0 if result["exit_code"] == 0 and final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
