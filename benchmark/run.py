#!/usr/bin/env python3
"""Campaign benchmark runner (standard library only).

Builds benchmark/sbgp_bench into .bench_build/, runs workloads on it, checks
their outputs and prints every metric by name with its unit. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 benchmark/run.py          # every workload, untraced and traced
    python3 benchmark/run.py --workload sweep-8k --seed 7 --trace 0
    python3 benchmark/run.py --repeat 10 --trace 0 --out results.json

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a separate traced
process. Exits non-zero if any output check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BENCH_BIN = BUILD_DIR / "cmake" / "sbgp_bench"
WORKLOADS = ("sweep-8k", "fullstage-64k", "small-adaptive", "warm-rerun")
DEFAULT_SEED = 20130812
MAX_WORKERS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# End-to-end metrics that are printed and recorded but not gated, so not in
# BENCHMARK.json's end_to_end list. failed_frac is 0 on every correct run
# (the result line's failed/attempted carry it); first_row_ms varies between
# runs by more than any allowed bound (README.md), so BENCHMARK.json lists
# it only as the per-layer campaign.first_row_ms.
REPORTED_ONLY = {"failed_frac": "ratio", "first_row_ms": "ms"}
# Percentiles a timing may report besides its median, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


# --- statistics -------------------------------------------------------------


def rank(p, n):
    """1-based nearest rank of percentile p among n samples (rounded first,
    so that 99.9% of 10000 is exactly rank 9990)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    return sorted(values)[rank(p, len(values)) - 1]


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def summarize(values):
    """Median, sample count and tail percentile of one timing's samples."""
    out = {"value": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail"] = [p, percentile(values, p)]
    return out


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    gap = parent - change if better == "higher" else change - parent
    return gap / parent if parent else (math.inf if gap > 0 else 0.0)


def within_bound(parent, change, better, bound):
    return worse_by(parent, change, better) <= bound


# --- metrics ----------------------------------------------------------------


def end_to_end(raw):
    """End-to-end metrics of one untraced sbgp_bench run."""
    rates = [p / w for p, w in zip(raw["pairs"], raw["wall_s"])]
    attempted = max(raw["cells_attempted"], 1)
    return {
        "pairs_per_s": summarize(rates),
        "first_row_ms": summarize(raw["first_row_ms"]),
        "setup_s": summarize(raw["setup_s"]),
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "n": 1},
        "failed_frac": {"value": raw["cells_failed"] / attempted, "n": 1},
    }


def per_layer(raw):
    """Per-layer metrics of one traced sbgp_bench run."""
    layers = {name: {"value": v, "n": 1} for name, v in raw["layers"].items()}
    layers["campaign.first_row_ms"] = summarize(raw["first_row_ms"])
    return layers


def check_run(raw, workers, digests, config_metrics):
    """The runner's own output checks on one sbgp_bench run (sbgp_bench
    counts its checks and failed cells itself); returns failure messages."""
    failures = []
    if raw["exit_code"] != 0 and not (raw["checks_failed"]
                                      or raw["cells_failed"]):
        failures.append(f"sbgp_bench exited {raw['exit_code']}")
    if workers > raw["hardware_concurrency"]:
        failures.append(f"W={workers} exceeds hardware_concurrency="
                        f"{raw['hardware_concurrency']}")
    if raw["seed"] == DEFAULT_SEED:
        expected = digests.get(raw["workload"])
        if expected != raw["digest"]:
            failures.append(f"per-trial CSV digest {raw['digest']} != "
                            f"recorded {expected}")
    missing = [m for m in config_metrics if m not in raw["metrics"]]
    if missing:
        failures.append("missing metrics: " + ", ".join(missing))
    return failures


# --- environment ------------------------------------------------------------


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev():
    """$SBGP_GIT_REV if set (a checkout without .git), else git's HEAD."""
    if os.environ.get("SBGP_GIT_REV"):
        return os.environ["SBGP_GIT_REV"]
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(jobs):
    """Configures (once) and builds sbgp_bench; cmake output goes to stderr
    so the last stdout line stays the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no sbgp sources next to {BENCH_DIR.name}/ (expected "
            "CMakeLists.txt and src/ at the repository root)")
    cmake_dir = BUILD_DIR / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(jobs),
                  "--target", "sbgp_bench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (OSError, subprocess.SubprocessError) as e:
            die(f"build failed: {e}")


def run_bench(workload, seed, seconds, workers, trace):
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workers", str(workers),
           "--workdir", str(BUILD_DIR / "work" / workload)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: sbgp_bench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{workload}: sbgp_bench exited {proc.returncode} without a "
            "result")
    raw["exit_code"] = proc.returncode
    return raw


# --- reporting --------------------------------------------------------------


def format_metric(workload, name, m, unit):
    line = f"{workload:<15} {name:<30} {m['value']:>14.6g} {unit:<6}"
    if m["n"] > 1:
        line += f" median of {m['n']}"
        if "tail" in m:
            line += f", p{m['tail'][0]:g} {m['tail'][1]:.6g}"
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build and run the sbgp campaign benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer "
                        "metrics only (default: both, as two processes)")
    parser.add_argument("--workers", type=int,
                        default=min(nproc(), MAX_WORKERS))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, at seeds seed .. "
                        "seed+repeat-1")
    parser.add_argument("--out", help="write every run to this results file")
    args = parser.parse_args(argv)

    config = load_json(ROOT / "BENCHMARK.json")
    hw = os.cpu_count() or 1
    if args.workers < 1 or args.workers > hw:
        die(f"W={args.workers} must be between 1 and hardware_concurrency="
            f"{hw}")
    if args.repeat < 1:
        die("--repeat must be >= 1")
    digests = load_json(BENCH_DIR / "digests.json")["digests"]
    build(args.workers)

    workloads = args.workload or list(WORKLOADS)
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    units = {m["name"]: m["unit"] for m in
             config["end_to_end"] + config["per_layer"]}
    display_units = {**units, **REPORTED_ONLY}
    runs = []
    attempted = failed = 0
    for i in range(args.repeat):
        seed = args.seed + i
        for workload in workloads:
            for trace in modes:
                raw = run_bench(workload, seed, args.seconds, args.workers,
                                 trace)
                raw["metrics"] = per_layer(raw) if trace else end_to_end(raw)
                wanted = [m["name"] for m in
                          config["per_layer" if trace else "end_to_end"]]
                own = check_run(raw, args.workers, digests, wanted)
                failed_ops = (raw["cells_failed"] + raw["checks_failed"] +
                              len(own))
                failures = raw["check_messages"] + own
                if raw["cells_failed"]:
                    failures.append(f"{raw['cells_failed']} failed cells")
                for name, m in raw["metrics"].items():
                    print(format_metric(workload, name, m,
                                        display_units[name]))
                for f in failures:
                    print(f"{workload:<15} CHECK FAILED: {f}")
                attempted += raw["cells_attempted"] + raw["checks_run"]
                failed += failed_ops
                runs.append({
                    "workload": workload, "seed": seed, "trace": trace,
                    "correct": failed_ops == 0, "failures": failures,
                    "digest": raw["digest"],
                    "metrics": raw["metrics"],
                    "hardware_concurrency": raw["hardware_concurrency"],
                    "compiler": raw["compiler"],
                    "build_type": raw["build_type"],
                })

    if args.out:
        first = runs[0]
        result = {
            "schema": 1, "git_rev": git_rev(), "nproc": nproc(),
            "hardware_concurrency": first["hardware_concurrency"],
            "workers": args.workers, "compiler": first["compiler"],
            "build_type": first["build_type"], "seconds": args.seconds,
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")

    # The result line: one run's metrics as they are; several runs' metrics
    # keyed "<workload>:<metric>" and reduced to their median over seeds.
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            if name not in units:
                continue
            key = name if len(workloads) == 1 else f"{r['workload']}:{name}"
            values.setdefault(key, []).append(m["value"])
    metrics = {key: {"value": statistics.median(v),
                     "unit": units[key.rsplit(":", 1)[-1]]}
               for key, v in values.items()}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
