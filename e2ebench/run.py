#!/usr/bin/env python3
"""End-to-end benchmark of the BOSON-1 library.

    python3 e2ebench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

Builds `boson_e2e` (Release) from the enclosing source tree into
`.bench_build/e2ebench`, then:

  --trace 0  repeats the workload, one fresh process per repetition, until
             --seconds have passed; checks every repetition's outputs and
             prints the end-to-end metrics (medians over repetitions).
  --trace 1  runs the workload once traced (global span collector + stage
             probe), once untraced (for trace.overhead), and for optimize and
             montecarlo once traced single-threaded (for trace.coverage);
             prints the per-layer ledger.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
See e2ebench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TYPE = "Release"
EXE = os.path.join(BUILD_DIR, "boson_e2e")
CHILD_TIMEOUT_S = 120

# Set-up samples per timed run (the repetitions' own, topped up with
# set-up-only processes), so setup_s is a median of many.
SETUP_SAMPLES = 20

WORKLOADS = ("optimize", "montecarlo", "campaign_served")

# Workloads whose trace.coverage comes from a single-threaded (BOSON_THREADS=1)
# traced run of the same repetition.
COVERAGE_WORKLOADS = ("optimize", "montecarlo")


def metric_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build boson_e2e; exit 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "boson_e2e", "-j", "4"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                if cmd[1] == "-S":  # a failed configure must not look configured next time
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                log("e2ebench: build failed:", " ".join(cmd))
                sys.exit(1)


def run_child(workload, seed, rep, traced=False, extra=(), env=None):
    """One repetition in a fresh process. Returns its JSON plus spawn time."""
    scratch = os.path.join(BUILD_DIR, "scratch", "%s-%d-%d" % (workload, os.getpid(), rep))
    cmd = [EXE, workload, "--seed", str(seed), "--rep", str(rep), "--scratch", scratch]
    cmd += list(extra) + (["--trace"] if traced else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, env=env, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_work_at"] - spawned
    return result


# Percentiles a tail may be reported at, highest first. It stops at p90: on
# campaign_served about a fifth of the status GETs wait several ms for a core,
# and p95 and above fall among those waits, which spread about 1.5x as
# much across runs as p90 does.
TAIL_LADDER = (90.0, 80.0, 75.0, 50.0)


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it, and
    that percentile (linear interpolation between order statistics)."""
    v = sorted(values)
    q = next((p for p in TAIL_LADDER if len(v) * (1.0 - p / 100.0) >= 10.0), 50.0)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo]), q


def reference_checks(workload, reps):
    """Tolerance checks against e2ebench/reference.json: (attempted, failures)."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload, {})
    failures = []
    for name, spec in ref.items():
        for r in reps:
            value = r["values"].get(name, float("nan"))
            if not (math.isfinite(value) and abs(value - spec["value"]) <= spec["tolerance"]):
                failures.append("%s = %r, reference %r +- %r"
                                % (name, value, spec["value"], spec["tolerance"]))
    return len(ref) * len(reps), failures


def environment():
    head = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "BOSON_THREADS": os.environ.get("BOSON_THREADS", "unset"),
            "build_type": BUILD_TYPE, "head": head or "unknown"}


def timed_run(workload, seed, seconds):
    reps, setups = [], []
    start = time.monotonic()
    deadline = start + seconds
    while not reps or time.monotonic() < deadline:
        reps.append(run_child(workload, seed, len(reps)))
        setups.append(reps[-1]["setup_s"])
        # Spread the set-up-only processes over the run, like the repetitions,
        # so setup_s sees the same machine as the other metrics. Their time
        # does not count against the run's measuring time.
        share = min(1.0, (time.monotonic() - start) / seconds)
        while len(setups) < SETUP_SAMPLES * share:
            t = time.monotonic()
            setups.append(run_child(workload, seed, len(reps) + len(setups),
                                    extra=["--setup-only"])["setup_s"])
            deadline += time.monotonic() - t
    units = [u for r in reps for u in r["unit_s"]]
    tail_value, tail_q = tail(units)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(r["work_s"] for r in reps),
        "unit_p50_ms": 1e3 * statistics.median(units),
        "unit_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": statistics.mean(r["peak_rss_mb"] for r in reps),
    }
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    ref_attempted, ref_failures = reference_checks(workload, reps)
    info = {"repetitions": len(reps), "unit_samples": len(units),
            "unit_tail_percentile": tail_q,
            "result_hashes": len({r["result_hash"] for r in reps if r["result_hash"]})}
    return metrics, attempted + ref_attempted, failures + ref_failures, info


def traced_run(workload, seed):
    traced = run_child(workload, seed, 0, traced=True)
    plain = run_child(workload, seed, 0)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["work_s"] / plain["work_s"]
    layers["trace.coverage"] = 0.0
    if workload in COVERAGE_WORKLOADS:
        env = dict(os.environ, BOSON_THREADS="1")
        single = run_child(workload, seed, 0, traced=True, env=env)
        layers["trace.coverage"] = single["layers"]["trace.coverage"]
    if workload == "optimize":
        layers["core.result_hashes"] = len({traced["result_hash"], plain["result_hash"]})
    metrics = {name: layers.get(name, 0.0) for name in metric_units("per_layer")}
    ref_attempted, ref_failures = reference_checks(workload, [traced, plain])
    attempted = traced["attempted"] + plain["attempted"] + ref_attempted
    failures = traced["failures"] + plain["failures"] + ref_failures
    return metrics, attempted, failures, {"repetitions": 2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    try:
        if args.trace:
            metrics, attempted, failures, info = traced_run(args.workload, args.seed)
        else:
            metrics, attempted, failures, info = timed_run(args.workload, args.seed, args.seconds)
        units = metric_units("per_layer" if args.trace else "end_to_end")
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("e2ebench:", e)
        return 1

    for f in failures:
        log("FAILED:", f)
    info.update(environment())
    print("# %s seed=%d trace=%d %s" % (args.workload, args.seed, args.trace, json.dumps(info)))
    for name, value in metrics.items():
        print("%-28s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
