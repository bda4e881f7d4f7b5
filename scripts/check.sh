#!/usr/bin/env bash
# Strict local verification: the tier-1 build/test cycle with warnings as
# errors, then the same test suite under address + UB sanitizers.
#
#   scripts/check.sh          # both passes
#   scripts/check.sh --fast   # -Werror pass only
set -euo pipefail

cd "$(dirname "$0")/.."

configure_and_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)"
}

run_tests() {
  ctest --test-dir "$1" --output-on-failure -j "$(nproc)"
}

echo "== pass 1: -Wall -Wextra -Werror =="
configure_and_build build-strict -DCMAKE_CXX_FLAGS=-Werror
run_tests build-strict

echo "== pass 1b: trace-export sanity (Perfetto-loadable JSON) =="
# Drive a traced measurement through the CLI and verify the artifact is
# valid Chrome trace-event JSON with the expected envelope — the cheapest
# end-to-end check that the span layer stays wired through the drivers.
./build-strict/examples/example_toposhot_cli --mode=pair --nodes=12 --a=0 --b=1 \
  --trace-out=build-strict/pair_trace.json > /dev/null
python3 - build-strict/pair_trace.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["displayTimeUnit"] == "ms", "bad displayTimeUnit"
events = doc["traceEvents"]
assert events, "empty trace"
for e in events:
    assert e["ph"] == "X" and "ts" in e and "dur" in e and "args" in e, e
assert any(e["name"].startswith("pair ") for e in events), "no pair span"
print(f"trace sanity: {len(events)} events OK")
EOF

if [[ "${1:-}" != "--fast" ]]; then
  echo "== pass 2: AddressSanitizer + UBSan =="
  configure_and_build build-asan -DCMAKE_BUILD_TYPE=Asan
  # A build type whose flags never reached the compiler builds and passes
  # just the same, unsanitized: refuse to go on unless the test binary
  # really carries both runtimes, and the float-cast-overflow check that
  # -fsanitize=undefined leaves out on GCC. (grep -c reads all of nm's
  # output, so pipefail never sees nm die of SIGPIPE.)
  for symbol in __asan_init __ubsan_handle_ __ubsan_handle_float_cast_overflow; do
    if ! nm build-asan/tests/toposhot_tests | grep -c "$symbol" > /dev/null; then
      echo "build-asan/tests/toposhot_tests lacks $symbol: the Asan build is not sanitized" >&2
      exit 1
    fi
  done
  run_tests build-asan
  # Suites whose sanitized run is the point of this pass: the
  # fault-injection layer (the injector as the sink of its own outage and
  # churn events, node restarts mid-flight); tracing/diagnostics (span
  # bookkeeping); the strategy seam
  # (Strategy*, Dethna*, TxProbe*: announce/echo bookkeeping across
  # restarts); world forking
  # (SnapshotWorld*, ForkWorld*, PeerLifetime*: restore rebuilds raw sink
  # pointers, Peer auto-detach is a use-after-free contract); the message
  # path (EventQueue*, Simulator*: the wheel's node pool, and events that
  # schedule their successors while they fire; TxDelivery*,
  # FifoClock*, PayloadArena*: a delivery copies its payload out of the
  # arena slot before the receiver sends again and reuses it, the arena
  # recycles chunks under live handles, a fork restores slots verbatim;
  # FlatHashMap*: shifts buckets on erase); the monitor and
  # telemetry plane (concurrent RPC readers racing the epoch loop, ring and
  # histogram index arithmetic); the mempool (MempoolTest*, the
  # parameterized Seeds/MempoolFuzz* with check_invariants() after every
  # step, FlatPriceIndex*); discovery (DiscV4*: datagram bodies move out of
  # a recycled slab before handlers that send again run); the JSON parser
  # (Json*: recursion bounded by the nesting limit, 100,000-deep input
  # rejected); the JSON decoders (ReportIo*, Export*, MonitorJson*,
  # MonitorRpc*, Health*: hostile integers such as 1e300, whose cast
  # float-cast-overflow traps). The full ctest run above already ran them under
  # ASan; this pass only proves a filter or discovery change did not drop
  # them: each pattern must match at least one test in the sanitized
  # binary, and every test it matches must be registered with ctest.
  echo "== pass 3: pinned suites are part of the sanitized run =="
  pinned=(
    'Fault*' 'SpanIds*' 'SpanTracer*' 'ChromeTrace*' 'DiagnosticsAnnex*'
    'ProbeCausePlumbing*' 'GoldenDeterminism*' 'Strategy*' 'Dethna*' 'TxProbe*'
    'SnapshotWorld*' 'ForkWorld*' 'PeerLifetime*' 'EventQueue*' 'Simulator*'
    'TxDelivery*' 'FifoClock*' 'PayloadArena*' 'FlatHashMap*' 'LinkTable*'
    'TopologyMonitor*' 'TopologyDiffTest*' 'MonitorStatusTest*' 'MonitorJson*'
    'MonitorSchedule*' 'MonitorRpc*' 'MonitorGolden*' 'EvaluateTracking*' 'EventLog*'
    'Health*' 'Prometheus*' 'Mempool*' '*MempoolFuzz*' 'FlatPriceIndex*' 'DiscV4*' 'Json*'
    'Miner*' 'MeasurementLog*' 'ReportIo*' 'Export*'
  )
  # ctest's `-N` listing in machine-readable form. Its display names
  # rewrite value-parameterized suffixes (`Fuzz/0 # GetParam() = 1` shows
  # as `Fuzz/1`), so match on the --gtest_filter each entry runs instead.
  registered=$(ctest --test-dir build-asan --show-only=json-v1 | python3 -c '
import json, sys
for test in json.load(sys.stdin)["tests"]:
    for arg in test.get("command", []):
        if arg.startswith("--gtest_filter="):
            print(arg[len("--gtest_filter="):])
' | sort -u)
  for pattern in "${pinned[@]}"; do
    listed=$(./build-asan/tests/toposhot_tests --gtest_list_tests --gtest_filter="$pattern" |
      awk '/^[^ ].*\.$/ {suite = $1; next} /^  / {print suite $1}' | sort -u)
    if [[ -z "$listed" ]]; then
      echo "pinned pattern '$pattern' matches no test in build-asan/tests/toposhot_tests" >&2
      exit 1
    fi
    missing=$(comm -23 <(echo "$listed") <(echo "$registered"))
    if [[ -n "$missing" ]]; then
      echo "tests matching '$pattern' are not registered with ctest in build-asan:" >&2
      echo "$missing" >&2
      exit 1
    fi
    echo "  $pattern: $(echo "$listed" | wc -l) tests in the sanitized run"
  done
fi

echo "All checks passed."
