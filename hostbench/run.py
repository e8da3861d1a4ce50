#!/usr/bin/env python3
"""Host-time benchmark of the rasc stack.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fleet_lossy, device_writer, prover_churn, or `all` (each workload
in turn, one result line each).  Run from the repository root.  The first
run configures and builds the harness (hostbench/CMakeLists.txt) under
.bench_build/; later runs only rebuild what changed.

Each workload runs in its own harness process.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, and the spans of the traced run
are written to .bench_build/hostbench/spans/.  A human-readable summary
goes to stderr.

The run is correct when no fleet invariant is violated, every metric is
present with its unit, and the fingerprint of the run's first batch and
that of the holdout seed match the ones recorded in
hostbench/fingerprints.json (or, for a seed not recorded there, the one a
previous run in this checkout saw).  An incorrect run prints its result
line and exits 1; a build failure exits 1 without a result line.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
HARNESS = os.path.join(BUILD, "hostbench_harness")
WORKLOADS = ("fleet_lossy", "device_writer", "prover_churn")
# Checked on every run; not one of the seeds the benchmark was tuned on.
HOLDOUT_SEED = 7919
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "hostbench_harness",
                        "-j", "4"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def harness(args):
    """Run the harness once; returns its parsed JSON result."""
    proc = subprocess.run([HARNESS] + [str(a) for a in args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=HARNESS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}: {' '.join(map(str, args))}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def check_fingerprint(table_path, key, seed, fingerprint, problems):
    """Compare with the recorded table, else with what this checkout saw."""
    recorded = load_json(table_path, {}).get(key, {})
    if str(seed) in recorded:
        if recorded[str(seed)] != fingerprint:
            problems.append(f"{key} seed {seed}: fingerprint {fingerprint} "
                            f"!= recorded {recorded[str(seed)]}")
        return
    seen_path = os.path.join(BUILD, "fingerprints_seen.json")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        seen = load_json(seen_path, {})
        previous = seen.setdefault(key, {}).get(str(seed))
        if previous is None:
            seen[key][str(seed)] = fingerprint
            with open(seen_path, "w") as f:
                json.dump(seen, f, indent=1, sort_keys=True)
        elif previous != fingerprint:
            problems.append(f"{key} seed {seed}: fingerprint {fingerprint} "
                            f"!= {previous} seen by an earlier run")


def run_workload(opts, workload, bench):
    tiny = ["--tiny"] if opts.tiny else []
    key = workload + ("/tiny" if opts.tiny else "")
    base = ["--workload", workload, "--seed", opts.seed, "--seconds", opts.seconds] + tiny
    problems = []

    untraced = harness(base + ["--trace", "0"])
    results = [untraced]
    if opts.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-{opts.seed}.ndjson")
        traced = harness(base + ["--trace", "1", "--spans-out", spans])
        results.append(traced)
        log(f"spans written to {spans}")
        wanted = bench["per_layer"]
        got = dict(traced["metrics"])
        got["obs.trace_overhead"] = {
            "value": traced["metrics"]["rounds_per_s"]["value"]
            - untraced["metrics"]["rounds_per_s"]["value"],
            "unit": "1/s"}
    else:
        wanted = bench["end_to_end"]
        got = untraced["metrics"]

    for r in results:
        problems += [f"invariant: {v}" for v in r["violations"]]
        check_fingerprint(opts.fingerprints, key, opts.seed, r["fingerprint"], problems)
    holdout = harness(["--workload", workload, "--seed", HOLDOUT_SEED,
                       "--fingerprint-only"] + tiny)
    problems += [f"invariant (holdout): {v}" for v in holdout["violations"]]
    check_fingerprint(opts.fingerprints, key, HOLDOUT_SEED, holdout["fingerprint"], problems)

    metrics = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            problems.append(f"metric {m['name']}: {value} (expected unit {m['unit']})")
        metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}

    attempted = untraced["attempted"]
    log(f"== {workload} seed {opts.seed} trace {int(opts.trace)}")
    log(f"fingerprint {key} seed {opts.seed}: {untraced['fingerprint']}")
    log(f"fingerprint {key} seed {HOLDOUT_SEED}: {holdout['fingerprint']}")
    for name, value in metrics.items():
        log(f"  {name:40s} {value['value']:.6g} {value['unit']}")
    log(f"  {'misjudged_share':40s} {untraced['misjudged'] / max(attempted, 1):.6g} share"
        f" ({untraced['misjudged']} of {attempted} rounds)")
    log(f"  samples: {untraced['samples']}")
    for p in problems:
        log(f"  PROBLEM: {p}")
    return {"correct": not problems, "attempted": attempted,
            "failed": untraced["unresolved"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    parser.add_argument("--fingerprints", default=os.path.join(HERE, "fingerprints.json"),
                        help="recorded fingerprint table")
    opts = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    ok = True
    for workload in WORKLOADS if opts.workload == "all" else (opts.workload,):
        try:
            result = run_workload(opts, workload, bench)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
            log(f"{workload}: {e}")
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
