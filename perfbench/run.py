#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library from src/ together with the
perfbench binary (perfbench/CMakeLists.txt) into .bench_build/ (or
$CARGO_TARGET_DIR), runs one workload with the settings in
perfbench/config.json, and prints the binary's log followed by one JSON
result line: {"correct", "attempted", "failed", "metrics"}.

The binary reports every metric it measured; this script picks the ones
BENCHMARK.json names (its end_to_end list with --trace 0, its per_layer list
with --trace 1), attaches their units and checks them. With --trace 0 it
first starts the binary setup_runs - 1 times in set-up only mode, so that
setup_s is the median over separate processes, each paying the costs of a
first set-up in a process. With --trace 1 it then also runs, traced, the
configurations the workload lists under trace_also, for the layers the
workload itself does not run.

Exits non-zero without a result when the library sources are missing, the
build fails, or the binary fails or overruns.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175.0  # a run must end within 180 s
BUILD_LIMIT_S = 850.0  # the first run in a checkout may take 900 s


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(cfg, build_dir):
    """Configure (once) and build; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    b = cfg["build"]
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + b["build_type"],
         "-DGEOFEM_SIMD=" + b["simd"]],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
    ]
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        for cmd in steps:
            left = BUILD_LIMIT_S - (time.monotonic() - t0)
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                    timeout=max(left, 1.0)).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(exe):
        fail("build produced no binary at %s" % exe)
    return exe


def llc_line():
    """The last-level cache as lscpu reports it (for the working-set note)."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    caches = [l.split(":", 1)[1].strip() for l in out.splitlines()
              if l.startswith(("L3 cache", "L2 cache"))]
    return caches[-1] if caches else "unknown"


def check_exact_counts(build_dir, key, counts):
    """Exact counts must repeat run to run: compare each count with the same
    count of an earlier run of the same binary, workload and seed in this
    checkout (a shorter run may not reach every count). Returns a problem or
    None."""
    path = os.path.join(build_dir, "exact_counts.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, {})
    differ = {k: (v, seen[k]) for k, v in counts.items() if k in seen and seen[k] != v}
    seen.update(counts)
    with open(path + ".tmp", "w") as f:
        json.dump(ledger, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    if differ:
        return "exact counts differ from an earlier run (now, before): %s" % differ
    return None


def run_binary(cmd, deadline):
    """Runs the binary; returns its stdout lines and its parsed last line."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before %s" % " ".join(cmd[1:3]), 3)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        fail("workload overran its time", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stderr.write(proc.stderr)
        fail("perfbench binary exited with %d" % proc.returncode)
    try:
        return lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench binary printed no result")


def select_metrics(got, wanted, trace, zero_allowed):
    """The metrics BENCHMARK.json names, with their units. Returns them and
    the problems found: with --trace 0 every metric must be measured, finite
    and positive (except those config.json allows to be 0); with --trace 1 a
    metric of a layer the workload does not run is 0."""
    out, problems = {}, []
    for m in wanted:
        name = m["name"]
        v = got.get(name, None if not trace else 0.0)
        if v is None or not math.isfinite(v):
            problems.append("metric %s is %s" % (name, "missing" if name not in got else "not finite"))
            v = 0.0
        elif not trace and v <= 0 and name not in zero_allowed:
            problems.append("metric %s is not positive" % name)
        out[name] = {"value": v, "unit": m["unit"]}
    return out, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    try:
        with open(os.path.join(HERE, "config.json")) as f:
            cfg = json.load(f)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read settings: %s" % e)
    if args.workload not in cfg["workloads"]:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(cfg["workloads"])))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    exe = build(cfg, build_dir)
    build_s = time.monotonic() - start

    w = cfg["workloads"][args.workload]

    def command(name):
        cmd = [exe, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        for k, v in cfg["workloads"][name]["args"].items():
            cmd += ["--" + k, ",".join(repr(x) for x in v) if isinstance(v, list) else repr(v)]
        if args.trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(trace_dir, "%s-%d.json" % (name, args.seed))]
        return cmd

    print("# build: %s, simd %s (%.1f s to build or check)" % (
        cfg["build"]["build_type"], cfg["build"]["simd"], build_s), flush=True)
    print("# layout: %s; %s; seed: %s" % (w["layout"], w["loop"], w["seed"]), flush=True)
    print("# last-level cache (lscpu): %s" % llc_line(), flush=True)
    # a run ends within 180 s; only the run that compiled may take longer
    deadline = time.monotonic() + (RUN_LIMIT_S if build_s > 60 else RUN_LIMIT_S - build_s)

    setups, attempted, failed, correct = [], 0, 0, True
    if not args.trace:
        for k in range(1, w["setup_runs"]):
            _, r = run_binary(command(args.workload) + ["--setup-only", "1"], deadline)
            if not isinstance(r["metrics"].get("setup_s"), (int, float)):
                fail("set-up only run %d reported no setup_s" % k)
            setups.append(r["metrics"]["setup_s"])
            attempted += int(r["attempted"])
            failed += int(r["failed"])
            correct = correct and bool(r["correct"])
            print("# set-up only run %d: setup %.4g s, %d attempted, %d failed" % (
                k, setups[-1], r["attempted"], r["failed"]), flush=True)

    # the workload itself, then (traced run) the configurations whose layers
    # its traced run also measures; their metrics fill only names it left unset
    names = [args.workload] + (w.get("trace_also", []) if args.trace else [])
    measured = {}
    for name in names:
        if name != args.workload:
            print("# traced run of %s for the layers %s does not run" % (name, args.workload))
        lines, result = run_binary(command(name), deadline)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        correct = correct and bool(result["correct"])
        for k, v in result["metrics"].items():
            measured.setdefault(k, v)
        exact = [l[len("# exact counts "):] for l in lines if l.startswith("# exact counts ")]
        if exact:
            with open(exe, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()[:16]
            key = "%s:%d:%s" % (name, args.seed, digest)
            problem = check_exact_counts(build_dir, key, json.loads(exact[-1]))
            if problem:
                print("# CHECK FAILED: " + problem)
                correct = False
    if setups:
        setups.append(measured["setup_s"])
        measured["setup_s"] = statistics.median(setups)
        print("# setup_s: median of %d set-ups in separate processes (%s s)" % (
            len(setups), " ".join("%.4g" % t for t in setups)))

    metrics, problems = select_metrics(measured, bench["per_layer" if args.trace else "end_to_end"],
                                       args.trace, cfg.get("zero_allowed", {}))
    for p in problems:
        print("# CHECK FAILED: " + p)
    correct = correct and not problems

    print("# failed_share = %.6g (failed %d / attempted %d)" % (
        failed / attempted if attempted else 1.0, failed, attempted))
    for name, m in metrics.items():
        print("# %s = %.6g %s%s" % (name, m["value"], m["unit"],
                                    "" if name in measured else " (layer not run)"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
