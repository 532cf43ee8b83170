#!/usr/bin/env bash
# Configure, build, and test the repo the same way CI / the tier-1 gate does.
#
#   scripts/check.sh                 # Release build + full ctest
#   scripts/check.sh --quick         # build + tier-1 ctest only: skips the
#                                    # sanitizer passes even when the NATPUNCH_*SAN
#                                    # knobs are set (CI's second compiler leg,
#                                    # and the fast local pre-push loop)
#   NATPUNCH_TSAN=1 scripts/check.sh # ...then rebuild the threaded-runner
#                                    # tests under -fsanitize=thread and
#                                    # re-run them (guards RunFleetParallel
#                                    # against data races)
#   NATPUNCH_ASAN=1 scripts/check.sh # ...then rebuild the chaos/failure,
#                                    # LAN/Network, event-loop (model and edge
#                                    # cases)/timer-wheel, golden-trace, NAT
#                                    # table/device, core punching, TURN,
#                                    # NAT Check, rendezvous (single and
#                                    # sharded, with the shard ring) and TCP
#                                    # tests, the flat hash map tests, the
#                                    # delivery pool's growth test and the
#                                    # gaming_lobby example under
#                                    # -fsanitize=address,undefined and
#                                    # re-run them (fault injection, session
#                                    # teardown, Network::Reset with packets
#                                    # in flight, event-slot reuse, dispatch-
#                                    # time scheduling, the NAT table's
#                                    # pooled entries and the hash map's
#                                    # wrapping clusters are where lifetime
#                                    # and bounds bugs hide)
#
# The compiler comes from the standard CC/CXX environment variables (CMake
# picks them up on a fresh configure); use a distinct BUILD_DIR per compiler
# so configure caches never mix.
#
# When ccache is on PATH it is wired in as the compiler launcher
# automatically (CI caches its directory across runs; locally it just makes
# rebuilds after a branch switch cheap).
#
# Environment knobs:
#   BUILD_DIR      (default: build)
#   TSAN_BUILD_DIR (default: build-tsan)
#   ASAN_BUILD_DIR (default: build-asan)
#   JOBS           (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *)
      echo "usage: scripts/check.sh [--quick]" >&2
      exit 2
      ;;
  esac
done

BUILD_DIR=${BUILD_DIR:-build}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
JOBS=${JOBS:-$(nproc)}

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# One parameterized sanitizer pass: configure with the given -fsanitize
# flags, rebuild only the targets whose behavior the sanitizer guards, and
# re-run their tests. Usage: sanitizer_pass BUILD_DIR SAN_FLAGS TEST_FILTER TARGET...
sanitizer_pass() {
  local dir=$1 san=$2 filter=$3
  shift 3
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=$san -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$san" \
    "${LAUNCHER_ARGS[@]}"
  cmake --build "$dir" -j"$JOBS" --target "$@"
  ctest --test-dir "$dir" --output-on-failure -R "$filter"
}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

if [[ "$QUICK" == "1" ]]; then
  exit 0
fi

if [[ "${NATPUNCH_TSAN:-0}" == "1" ]]; then
  echo "==== TSan pass: rebuilding fleet/netsim tests with -fsanitize=thread ===="
  sanitizer_pass "$TSAN_BUILD_DIR" thread 'Fleet|EventLoop' fleet_test netsim_test
fi

if [[ "${NATPUNCH_ASAN:-0}" == "1" ]]; then
  echo "==== ASan/UBSan pass: rebuilding chaos/failure/LAN/event-loop/golden-trace/NAT/punching/TURN/NAT Check/rendezvous/TCP/flat-hash/delivery-pool tests and gaming_lobby with -fsanitize=address,undefined ===="
  # NatCheckTest is anchored: the unbuilt fleet_test shares natcheck_test's
  # FleetTest suite name, so only NatCheckTest is selected from that binary.
  # FlatHashMapTest is anchored too: it is the only util_test suite selected.
  # From alloc_test only the delivery pool's growth test runs: it counts the
  # bytes the pool asks operator new for, which the sanitizer does not change.
  sanitizer_pass "$ASAN_BUILD_DIR" address,undefined \
    'Chaos|FailureTest|LanTest|NetworkTest|EventLoopTest|EventLoopEdgeTest|TraceGoldenTest|TimerWheel|^(UdpPunch|TcpPunch|Relay|Prober|Prediction|Connector|NatTable|NatDevice|BasicNat|Contention|TurnCodec|Turn|NatCheck|Framer|RendezvousCodec|Rendezvous|ShardMessage|ShardRing|ShardedTier|Tcp|FlatHashMap)Test\.|/NatTableModelTest\.|^ShardedTierByteIdentity\.|^ZeroAllocTest\.DeliveryPoolGrowsWithoutCopying$|^example_gaming_lobby$' \
    chaos_test failure_test netsim_test misc_test timer_wheel_test trace_golden_test core_test \
    nat_test nat_table_model_test extensions_test turn_test natcheck_test rendezvous_test \
    rendezvous_shard_test tcp_test util_test alloc_test gaming_lobby
fi
