#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench_runner from source and runs one workload.

    python3 perfbench/run.py --workload swarm|churn|fleet --seed N --seconds S --trace 0|1

prints the runner's environment stamp, its simulated-time fingerprint and, as
the last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Each result is also saved, stamp included, under
<build>/results/; the spans of a traced run go to <build>/spans/.

Other modes:
    --self-test        build and run the benchmark's own unit tests
    --check            determinism and fresh-seed checks on every workload
    --compare A B      compare two saved results; refuses if their stamps differ

<build> is $CARGO_TARGET_DIR (relative paths are taken from the repository
root), or .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics measured in wall-clock time or from the process's resident
# memory; every other per-layer metric is a count or a simulated-time result
# and must repeat exactly for a seed.
WALL_UNITS = {"ns", "s", "x", "B"}
WALL_NAMES = {"obs.span_coverage"}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def jobs():
    return str(len(os.sched_getaffinity(0)))


def build(target):
    build_dir = build_root() / "perfbench"
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs()])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    return build_dir / target


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_once(runner, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout lines, parsed record) or None."""
    cmd = [str(runner), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        spans = build_root() / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        for line in lines[:-1]:
            tag, _, body = line.partition(" ")
            if tag in ("STAMP", "SIM"):
                record[tag.lower()] = json.loads(body)
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        log(f"perfbench: unreadable runner output ({e})")
        return None
    if "stamp" not in record or "sim" not in record:
        log("perfbench: runner printed no STAMP or SIM line")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"perfbench: unexpected result keys {sorted(result)}")
        return None
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        log(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected_metrics(trace)))}")
        return None
    record["result"] = result
    return proc.returncode, lines, record


def save(record):
    out = build_root() / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["stamp"] != b["stamp"]:
        log("perfbench: refusing to compare results recorded under different stamps:")
        for key in sorted(set(a["stamp"]) | set(b["stamp"])):
            if a["stamp"].get(key) != b["stamp"].get(key):
                log(f"  {key}: {a['stamp'].get(key)!r} vs {b['stamp'].get(key)!r}")
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("perfbench: refusing to compare different workloads or trace modes")
        return 2
    for name, m in a["result"]["metrics"].items():
        va, vb = m["value"], b["result"]["metrics"][name]["value"]
        ratio = f"{vb / va:.4f}x" if va else "-"
        print(f"{name:48s} {va:>16.6g} {vb:>16.6g} {ratio:>10s} {m['unit']}")
    return 0


def layer_counts(record):
    units = expected_metrics(True)
    return {name: m["value"] for name, m in record["result"]["metrics"].items()
            if units[name] not in WALL_UNITS and name not in WALL_NAMES}


def check(runner, seeds=(1, 2), seconds=1):
    """Same seed twice gives identical simulated-time results and per-layer
    counts, traced runs agree with untraced ones, and a second seed passes
    every output check."""
    failures = []
    for workload in WORKLOADS:
        runs = {}
        for key, seed, trace in [("plain", seeds[0], False), ("plain_again", seeds[0], False),
                                 ("traced", seeds[0], True), ("traced_again", seeds[0], True),
                                 ("fresh_seed", seeds[1], False)]:
            out = run_once(runner, workload, seed, seconds, trace)
            if out is None or out[0] != 0 or not out[2]["result"]["correct"]:
                failures.append(f"{workload}: {key} run (seed {seed}) failed its output checks")
                continue
            runs[key] = out[2]
        fingerprint = {k: r["sim"]["fingerprint"] for k, r in runs.items()}
        for key in ("plain_again", "traced", "traced_again"):
            if key in runs and "plain" in runs and fingerprint[key] != fingerprint["plain"]:
                failures.append(f"{workload}: {key} simulated-time facts differ from the first run")
        if "traced" in runs and "traced_again" in runs:
            a, b = layer_counts(runs["traced"]), layer_counts(runs["traced_again"])
            diff = sorted(k for k in a if a[k] != b[k])
            if diff:
                failures.append(f"{workload}: per-layer counts differ between runs: {diff}")
        log(f"perfbench --check {workload}: {fingerprint}")
    for f in failures:
        log(f"CHECK FAILED: {f}")
    log("perfbench --check: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        test = build("perfbench_test")
        return 1 if test is None else subprocess.run([str(test)]).returncode
    runner = build("perfbench_runner")
    if runner is None:
        return 1
    if args.check:
        return check(runner)
    if not args.workload:
        parser.error("--workload is required")
    out = run_once(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        return 1
    code, lines, record = out
    save(record)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
