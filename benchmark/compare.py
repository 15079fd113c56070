#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload x metric.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --same SET_A_DIR SET_B_DIR
    python3 benchmark/compare.py --trace-overhead UNTRACED_DIR TRACED_DIR

A result directory holds one file per run: the captured stdout of
`run.py --workload W --seed S ...` (any file name). Runs are paired by
workload and seed, so take the two sets with the same seeds and alternate
which side runs first.

Verdicts (bounds and directions come from BENCHMARK.json):
  improved    the change wins >= 9/10 of the pairs and the medians differ,
              in its favour, by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's quartile distance is wider than the bound, and not
              every change run beats every parent run
  no-worse    anything else
--same compares two sets from one commit: agree / disagree / unresolved.
--trace-overhead prints traced vs untraced iter_s_p50 per workload.
Exit status 1 when any row is worse, disagree or (with --same) unresolved.
Python 3 standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: [(seed, name, result), ...]} from one result directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        env, result = None, None
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "env" in obj:
                env = obj["env"]
            elif "metrics" in obj:
                result = obj
        if env is None:
            continue  # not a benchmark run (logs, stderr captures)
        if result is None:
            print(f"skipping {path}: the run printed no result",
                  file=sys.stderr)
            continue
        runs.setdefault(env["workload"], []).append(
            (env["seed"], path.name, result))
    for entries in runs.values():
        entries.sort(key=lambda e: (e[0], e[1]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """Is a strictly better than b?"""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric, same):
    bound, direction = metric["bound"], metric["better"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    spread_wide = (p_q3 - p_q1) > bound * abs(p_med) or \
                  (c_q3 - c_q1) > bound * abs(c_med)
    worse_by = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if same:
        if spread_wide:
            label = "unresolved"
        elif abs(c_med - p_med) > bound * abs(p_med):
            label = "disagree"
        else:
            label = "agree"
    else:
        all_better = all(better(c, p, direction)
                         for p in parent for c in change)
        if spread_wide and not all_better:
            label = "unresolved"
        elif wins >= 0.9 * len(pairs) and -worse_by > (p_q3 - p_q1):
            label = "improved"
        elif worse_by > bound * abs(p_med):
            label = "worse"
        else:
            label = "no-worse"
    return {
        "p": (p_q1, p_med, p_q3), "c": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(pairs), "label": label,
        "delta_pct": 100 * (c_med - p_med) / p_med if p_med else 0.0,
    }


def compare(args, benchmark):
    parent_runs, change_runs = load_runs(args.a), load_runs(args.b)
    sides = ("A", "B") if args.same else ("parent", "change")
    minimum = 5 if args.same else 10
    print(f"{'workload':<12} {'metric':<22} {sides[0] + ' median [q1, q3]':>34} "
          f"{sides[1] + ' median [q1, q3]':>34} {'delta':>8} {'wins':>6} "
          f"{'bound':>6}  verdict")
    failing = {"worse", "disagree"} | ({"unresolved"} if args.same else set())
    failed = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, [])
        c_runs = change_runs.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload:<12} missing on one side")
            failed = True
            continue
        if n < minimum:
            print(f"{workload:<12} only {n} pairs (want >= {minimum})",
                  file=sys.stderr)
        for side, runs in zip(sides, (p_runs, c_runs)):
            bad = [r[1] for r in runs if not r[2]["correct"] or r[2]["failed"]]
            if bad:
                print(f"{workload:<12} {side}: incorrect or failed runs: "
                      f"{', '.join(bad)}")
                failed = True
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r[2]["metrics"][name]["value"] for r in p_runs[:n]]
            change = [r[2]["metrics"][name]["value"] for r in c_runs[:n]]
            v = verdict(parent, change, metric, args.same)
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:<12} {name:<22} {fmt(v['p']):>34} {fmt(v['c']):>34} "
                  f"{v['delta_pct']:+7.2f}% {v['wins']:>2}/{v['pairs']:<3} "
                  f"{100 * metric['bound']:5.1f}%  {v['label']}")
            failed |= v["label"] in failing
    return 1 if failed else 0


def trace_overhead(args):
    untraced, traced = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<12} {'untraced p50':>14} {'traced p50':>14} "
          f"{'overhead':>9} {'in-run tracer share':>20}")
    for workload in sorted(set(untraced) & set(traced)):
        by_seed = {seed: res for seed, _, res in untraced[workload]}
        pairs = [(by_seed[seed], res) for seed, _, res in traced[workload]
                 if seed in by_seed]
        if not pairs:
            continue
        u = statistics.median(p[0]["metrics"]["iter_s_p50"]["value"] for p in pairs)
        t = statistics.median(p[1]["metrics"]["runtime.iter_s_p50"]["value"]
                              for p in pairs)
        share = statistics.median(p[1]["metrics"]["trace_overhead_pct"]["value"]
                                  for p in pairs)
        print(f"{workload:<12} {u:14.6g} {t:14.6g} {100 * (t / u - 1):+8.2f}% "
              f"{share:19.4f}%")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="parent (or set A / untraced) result directory")
    parser.add_argument("b", help="change (or set B / traced) result directory")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--same", action="store_true",
                      help="two sets of one commit: check they agree")
    mode.add_argument("--trace-overhead", action="store_true",
                      help="traced vs untraced iter_s_p50 per workload")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args()
    if args.trace_overhead:
        return trace_overhead(args)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    return compare(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
