#!/usr/bin/env python3
"""A/B two source trees on one perfbench workload.

    scripts/ab.py BASE_TREE CHANGE_TREE --workload swarm --seed 61 --rounds 10 --seconds 30

Each tree is built and run through its own perfbench/run.py, with
CARGO_TARGET_DIR set to the relative path .bench_build/ab, which run.py
resolves under that tree's root: each tree keeps a build of its own
sources. A short unpinned run of each tree builds its runner first.

Every round then runs both arms on the same seed. The two arms run at the
same time, each pinned with taskset to one of the last two cores this
process may use, and the cores swap every round: whatever else the machine
is doing slows both arms alike. `fleet` runs nproc workers of its own, so
it (and any run with fewer than two usable cores) alternates the arms one
after the other instead, unpinned, swapping which arm goes first every
round.

For every end-to-end metric of BENCHMARK.json the report lists every run,
each round's change/base ratio and the arm that did better, the change's
wins out of the rounds, and each arm's median and interquartile range
(quartiles by linear interpolation). A metric whose medians differ by more
than the base arm's IQR is marked so. The SIM fingerprint of every run is
printed too; the arms of a change that keeps the simulation the same must
agree on it.

Exit status: 0 when every run printed a correct result, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ARMS = ("base", "change")
# Relative, so each tree's run.py builds under its own root.
TARGET_DIR = ".bench_build/ab"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_arm(tree, workload, seed, seconds, core=None, quiet=True):
    """Starts one perfbench run of `tree`; returns its Popen. Unless `quiet`,
    run.py's build log and diagnostics go to this process's stderr."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if core is not None:
        cmd = ["taskset", "-c", str(core)] + cmd
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET_DIR)
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL if quiet else None, text=True)


def collect(proc):
    """Waits for a run; returns {"fingerprint", "correct", "exit", "metrics"} or None."""
    out, _ = proc.communicate()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        sim = next(json.loads(line.partition(" ")[2]) for line in lines
                   if line.startswith("SIM "))
    except (IndexError, StopIteration, ValueError):
        return None
    return {"fingerprint": sim["fingerprint"], "correct": bool(result["correct"]),
            "exit": proc.returncode,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def report(spec, runs, label):
    """Prints the per-metric tables; returns True if every run was correct."""
    rounds = len(runs)
    ok = all(r[arm] is not None and r[arm]["correct"] and r[arm]["exit"] == 0
             for r in runs for arm in ARMS)
    print(f"== {label}: {rounds} rounds")
    print("round  order/cores          base fingerprint   change fingerprint")
    for i, r in enumerate(runs):
        fp = [r[arm]["fingerprint"] if r[arm] else "FAILED" for arm in ARMS]
        print(f"{i + 1:5d}  {r['layout']:<20s} {fp[0]:<18s} {fp[1]}")
    if not ok:
        print("some runs failed or printed \"correct\": false")
        return False
    for metric in spec["end_to_end"]:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        print(f"\n{name} ({unit}, {'lower' if lower else 'higher'} is better)")
        print("round          base        change    ratio  better")
        wins = 0
        ratios = []
        for i, (b, c) in enumerate(zip(base, change)):
            ratio = c / b if b else float("nan")
            ratios.append(ratio)
            if b == c:
                better = "tie"
            elif (c < b) == lower:
                better = "change"
                wins += 1
            else:
                better = "base"
            print(f"{i + 1:5d}  {b:12.6g}  {c:12.6g}  {ratio:7.4f}  {better}")
        stats = {}
        for arm, values in (("base", base), ("change", change)):
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats[arm] = (med, q3 - q1)
            print(f"{arm:>6s}: median {med:.6g}, quartiles {q1:.6g}-{q3:.6g}, "
                  f"IQR {q3 - q1:.6g} ({100 * (q3 - q1) / med if med else 0:.1f}% of median), "
                  f"range {min(values):.6g}-{max(values):.6g}")
        delta = stats["change"][0] - stats["base"][0]
        print(f"change better in {wins}/{rounds} rounds; median ratio "
              f"{statistics.median(ratios):.4f}; medians differ by {delta:+.6g}, "
              f"{'more' if abs(delta) > stats['base'][1] else 'not more'} than the base IQR")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    if trees["base"] == trees["change"]:
        parser.error("the two trees are one directory, whose one build both arms would share")
    cores = sorted(os.sched_getaffinity(0))[-2:]
    sequential = args.workload == "fleet" or len(cores) < 2
    if args.rounds < 2:
        parser.error("quartiles need at least two rounds")

    for arm in ARMS:
        log(f"ab: building {arm} ({trees[arm]}) under {trees[arm] / TARGET_DIR}")
        first = collect(run_arm(trees[arm], args.workload, args.seed, 1, quiet=False))
        if first is None or not first["correct"]:
            log(f"ab: {arm} did not build or failed its first run")
            return 1

    runs = []
    for i in range(args.rounds):
        order = ARMS if i % 2 == 0 else ARMS[::-1]
        record = {}
        if sequential:
            for arm in order:
                record[arm] = collect(run_arm(trees[arm], args.workload, args.seed,
                                              args.seconds))
            record["layout"] = f"{order[0]} first"
        else:
            placed = dict(zip(order, cores))
            procs = {arm: run_arm(trees[arm], args.workload, args.seed, args.seconds,
                                  placed[arm]) for arm in ARMS}
            for arm in ARMS:
                record[arm] = collect(procs[arm])
            record["layout"] = f"base@{placed['base']} change@{placed['change']}"
        runs.append(record)
        log(f"ab: round {i + 1}/{args.rounds} done ({record['layout']})")

    mode = "sequential, unpinned" if sequential else f"concurrent, pinned to {cores}"
    ok = report(spec, runs, f"{args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
