#!/usr/bin/env bash
# Where does a benchmark workload spend its time, layer by layer?
#
# Builds perfbench's runner with gprof instrumentation in its own tree, runs
# one workload untraced, and folds gprof's flat profile into a per-layer
# table: each function goes to the layer of the source file that defines it
# (src/netsim, src/nat, ..., perfbench, or other for the standard library
# and anything without line info), read from `nm -C -l`. The top functions
# follow, each with its layer.
#
#   scripts/profile.sh swarm|churn|fleet    # 10 s of the workload (seed 1)
#
# fleet runs its devices on worker threads and gprof samples only part of
# that work; swarm and churn run on the main thread.
#
# gprof skips symbols with a '.' in their name and charges their samples to
# whatever function precedes them in the binary. gcc's IPA clones
# ("[clone .part.0]", "[clone .constprop.0]", ...) are such symbols, so the
# build turns off the passes that make them; the script reports any clone
# left in this repository's code.
#
# Environment knobs:
#   JOBS (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=${1:-}
case "$WORKLOAD" in
  swarm | churn | fleet) ;;
  *)
    echo "usage: scripts/profile.sh swarm|churn|fleet" >&2
    exit 2
    ;;
esac

PROF_BUILD_DIR=build-prof
JOBS=${JOBS:-$(nproc)}
NO_CLONES="-fno-partial-inlining -fno-ipa-cp-clone -fno-ipa-sra -fno-reorder-blocks-and-partition"

# RelWithDebInfo gives nm its line info and keeps perfbench's LTO off.
cmake -S perfbench -B "$PROF_BUILD_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer $NO_CLONES" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
cmake --build "$PROF_BUILD_DIR" --target perfbench_runner -j"$JOBS"

RUNNER=$(realpath "$PROF_BUILD_DIR/perfbench_runner")
RUN_DIR="$PROF_BUILD_DIR/profile-$WORKLOAD"
mkdir -p "$RUN_DIR"
rm -f "$RUN_DIR/gmon.out"
# gmon.out lands in the working directory when the runner exits. gprof
# samples every 10 ms, so a profile needs a run of at least 5 s.
(cd "$RUN_DIR" && "$RUNNER" --workload "$WORKLOAD" --seed 1 --seconds 10 \
  --trace 0 >runner.out)
gprof -b -p "$RUNNER" "$RUN_DIR/gmon.out" >"$RUN_DIR/flat.txt"
nm -C -l --defined-only "$RUNNER" >"$RUN_DIR/symbols.txt"

python3 - "$RUN_DIR" "$(pwd)" <<'PY'
import re
import sys
from collections import defaultdict
from pathlib import Path

run_dir, root = Path(sys.argv[1]), sys.argv[2].rstrip("/") + "/"

# nm -C -l: "ADDR TYPE NAME\tFILE:LINE"; names may hold spaces, never tabs.
source_of = {}
clones = []
for line in (run_dir / "symbols.txt").read_text().splitlines():
    head, _, where = line.partition("\t")
    parts = head.split(" ", 2)
    if len(parts) < 3 or not where:
        continue
    name, path = parts[2], where.rsplit(":", 1)[0]
    source_of.setdefault(name, path)
    if "[clone ." in name and path.startswith(root):
        clones.append(name)


def layer(path):
    if path is None or not path.startswith(root):
        return "other"
    rel = path[len(root):].split("/")
    if rel[0] == "src" and len(rel) > 2:
        return "src/" + rel[1]
    return rel[0] if rel[0] == "perfbench" else "other"


# Flat profile rows: %time, cumulative s, self s, [calls, self/call, total/call,] name.
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
functions = []
for line in (run_dir / "flat.txt").read_text().splitlines():
    m = row.match(line)
    if m:
        functions.append((float(m.group(1)), m.group(2) or "", m.group(3)))
total = sum(f[0] for f in functions)
if total == 0:
    sys.exit("profile.sh: gprof recorded no samples")

by_layer = defaultdict(float)
for self_s, _, name in functions:
    by_layer[layer(source_of.get(name))] += self_s
print(f"\n{'layer':<18}{'self s':>9}{'share':>8}")
for name, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
    print(f"{name:<18}{self_s:>9.2f}{100 * self_s / total:>7.1f}%")
print(f"{'total':<18}{total:>9.2f}")

print(f"\n{'self s':>8}{'share':>8}{'calls':>12}  {'layer':<16}function")
for self_s, calls, name in functions[:20]:
    print(f"{self_s:>8.2f}{100 * self_s / total:>7.1f}%{calls:>12}  "
          f"{layer(source_of.get(name)):<16}{name[:90]}")
print(f"\nIPA clones left in this repository's code: {len(clones)}")
for name in clones[:10]:
    print("  " + name)
PY
echo "flat profile: $RUN_DIR/flat.txt"
