#!/usr/bin/env python3
"""Compare two benchmark result files, parent against change (stdlib only).

    python3 benchmark/compare.py parent.json change.json
    python3 benchmark/compare.py --run PARENT_ROOT CHANGE_ROOT [--pairs 10]

The first form compares result files written by `run.py --repeat N --out`.
Run i of one side is paired with the run of the other side at the same seed.
The second form makes those files itself: it runs both checkouts' run.py at
the same seeds, alternating which side goes first, then compares them.

For each (workload, end-to-end metric) it prints both sides' median and
quartiles and one verdict, following the rules in benchmark/README.md:

    win         the change won at least 9 of every 10 pairs and its median
                beats the parent's by more than the parent's quartile range
    better      the spread exceeds the bound, but every change run beats
                every parent run
    unresolved  the spread of either side exceeds the metric's bound
    regression  the change's median is worse by more than the bound
    unchanged   none of the above

A change whose runs fail more checks than the parent's also counts as a
regression. Exits 1 on a regression, 2 on bad input, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the runner's statistics)

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """Verdict for one (workload, metric): `parent` and `change` are the
    metric's values over the same seeds, in pair order."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "too few pairs"
    parent, change = parent[:n], change[:n]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, pm, q3 = run.quartiles(parent)
    cm = statistics.median(change)
    if wins >= WIN_SHARE * n and sign * (cm - pm) > q3 - q1:
        return "win"
    if max(run.spread(parent), run.spread(change)) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    if not run.within_bound(pm, cm, better, bound):
        return "regression"
    return "unchanged"


def by_seed(result, workload, metric):
    return {r["seed"]: r["metrics"][metric]["value"] for r in result["runs"]
            if r["workload"] == workload and not r["trace"]
            and metric in r["metrics"]}


def compare(parent, change, config):
    """Rows of (workload, metric, parent values, change values, verdict)."""
    rows = []
    workloads = [w["name"] for w in config["workloads"]]
    for workload in workloads:
        for m in config["end_to_end"]:
            p = by_seed(parent, workload, m["name"])
            c = by_seed(change, workload, m["name"])
            seeds = sorted(set(p) & set(c))
            if not seeds:
                continue
            pv = [p[s] for s in seeds]
            cv = [c[s] for s in seeds]
            rows.append((workload, m, pv, cv,
                         verdict(pv, cv, m["better"], m["bound"])))
    return rows


def describe(values):
    q1, q2, q3 = run.quartiles(values)
    return f"{q2:>11.5g} [{q1:.5g}, {q3:.5g}]"


def run_pairs(parent_root, change_root, args):
    """Runs both checkouts at the same seeds, alternating which goes first,
    and returns their merged result files."""
    results = {parent_root: None, change_root: None}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ([parent_root, change_root] if i % 2 == 0
                     else [change_root, parent_root])
            for root in order:
                out = Path(tmp) / "run.json"
                runner = Path(root) / "benchmark" / "run.py"
                cmd = [sys.executable, str(runner), "--seed",
                       str(args.seed + i), "--seconds", str(args.seconds),
                       "--trace", "0", "--out", str(out)]
                subprocess.run(cmd, cwd=root, check=False,
                               stdout=subprocess.DEVNULL)
                if not out.is_file():
                    sys.exit(f"compare.py: run.py failed in {root}")
                with open(out, encoding="utf-8") as f:
                    result = json.load(f)
                if results[root] is None:
                    results[root] = result
                else:
                    results[root]["runs"] += result["runs"]
                out.unlink()
    return results[parent_root], results[change_root]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="parent.json change.json")
    parser.add_argument("--run", nargs=2,
                        metavar=("PARENT_ROOT", "CHANGE_ROOT"),
                        help="run both checkouts instead of reading files")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    config_root = Path(args.run[1]) if args.run else run.ROOT
    try:
        with open(config_root / "BENCHMARK.json", encoding="utf-8") as f:
            config = json.load(f)
        if args.run:
            if args.pairs < MIN_PAIRS:
                parser.error(f"--pairs must be at least {MIN_PAIRS}")
            parent, change = run_pairs(*args.run, args)
        elif len(args.files) == 2:
            with open(args.files[0], encoding="utf-8") as f:
                parent = json.load(f)
            with open(args.files[1], encoding="utf-8") as f:
                change = json.load(f)
        else:
            parser.error("give parent.json and change.json, or --run")
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    rows = compare(parent, change, config)
    if not rows:
        print("compare.py: the files share no (workload, metric, seed)",
              file=sys.stderr)
        return 2
    print(f"{'workload':<15} {'metric':<14} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  pairs  verdict")
    for workload, m, pv, cv, v in rows:
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0)
        print(f"{workload:<15} {m['name']:<14} {describe(pv):>32} "
              f"{describe(cv):>32}  {wins:>2}/{len(pv):<2}  {v}")
    failed = [sum(not r["correct"] for r in result["runs"])
              for result in (parent, change)]
    print(f"runs failing a check: parent {failed[0]}, change {failed[1]}")
    regression = any(v == "regression" for *_, v in rows)
    return 1 if regression or failed[1] > failed[0] else 0


if __name__ == "__main__":
    sys.exit(main())
