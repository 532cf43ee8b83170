#!/usr/bin/env bash
# Memory profile of the swarm bench: where do the bytes per session live?
#
# Builds the Release bench targets, runs bench_swarm's unsharded leg with
# the metrics registry enabled (NATPUNCH_SWARM_METRICS) and the obs artifact
# hook pointed at an output directory, then folds the mem.<pool>.* gauges
# (the slabs' and the Network's delivery pool, each with the bytes it
# holds) from the metrics snapshot into a per-pool bytes breakdown JSON —
# the artifact CI uploads so a bytes/session regression can be attributed
# to a specific pool (sessions? registration records? TCP sockets?) instead
# of re-running locally with a profiler.
#
#   scripts/memprof.sh                 # build + profile, writes to ./memprof-out
#   OUT_DIR=/tmp/mp scripts/memprof.sh # CI points OUT_DIR at its artifact dir
#
# Output: $OUT_DIR/memprof.json, plus the raw per-leg metrics snapshots
# ($OUT_DIR/swarm_steady_state_metrics.json).
#
# Environment knobs:
#   BUILD_DIR (default: build)
#   OUT_DIR   (default: memprof-out)
#   NATPUNCH_SWARM_SESSIONS passes through to the bench.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-memprof-out}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_swarm -j "${JOBS:-$(nproc)}"

mkdir -p "$OUT_DIR"

# The scaling sweep is not needed for a pool breakdown; run just the two
# standard legs. Each leg forks, so each metrics snapshot is leg-local.
NATPUNCH_SWARM_METRICS=1 NATPUNCH_OBS_DIR="$OUT_DIR" \
  "$BUILD_DIR/bench/bench_swarm" | tee "$OUT_DIR/bench_swarm.out"

python3 - "$OUT_DIR" <<'PY'
import json
import re
import sys
from pathlib import Path

out_dir = Path(sys.argv[1])

# BENCH_JSON lines carry sessions + bytes_per_session per leg.
legs = {}
for line in (out_dir / "bench_swarm.out").read_text().splitlines():
    line = line.strip()
    if line.startswith("BENCH_JSON "):
        entry = json.loads(line[len("BENCH_JSON "):])
        legs[entry["bench"]] = entry

breakdown = {}
for leg, entry in legs.items():
    snap_path = out_dir / f"{leg}_metrics.json"
    if not snap_path.exists():
        continue
    gauges = json.loads(snap_path.read_text()).get("gauges", {})
    # Gauge names are mem.<pool>.<host>.{live,peak,slabs,bytes} for the
    # slabs and mem.deliveries.{live,peak,bytes} for the one host-less
    # delivery pool; aggregate by pool across hosts. Every pool reports the
    # bytes it holds: a slab its chunks (headers plus capacity x slot size),
    # the delivery pool its 64-slot chunks.
    pools = {}
    for name, g in gauges.items():
        m = re.match(r"mem\.([a-z_]+)(?:\.(.+))?\.(live|peak|slabs|bytes)$", name)
        if not m:
            continue
        pool, _host, field = m.groups()
        counts = pools.setdefault(pool, {"live": 0, "peak": 0})
        counts[field] = counts.get(field, 0) + g["value"]
    breakdown[leg] = {
        "sessions": entry.get("sessions"),
        "peak_rss_mb": entry.get("peak_rss_mb"),
        "bytes_per_session": entry.get("bytes_per_session"),
        "pools": pools,
    }

result_path = out_dir / "memprof.json"
result_path.write_text(json.dumps(breakdown, indent=2) + "\n")
print(f"wrote {result_path}")
for leg, data in breakdown.items():
    print(f"\n{leg}: {data['bytes_per_session']:.0f} bytes/session "
          f"({data['peak_rss_mb']:.1f} MiB / {data['sessions']} sessions)")
    for pool, counts in sorted(data["pools"].items()):
        slabs = f"slabs={counts['slabs']:<6} " if "slabs" in counts else ""
        print(f"  {pool:<24} live={counts['live']:<9} peak={counts['peak']:<9} {slabs}"
              f"bytes={counts.get('bytes', 0)} ({counts.get('bytes', 0) / 2**20:.2f} MiB)")
PY
