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
  --trace-out=build-strict/pair_trace.json --trace-capacity=8192 > /dev/null
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
  # really carries both runtimes. (grep -c reads all of nm's output, so
  # pipefail never sees nm die of SIGPIPE.)
  for symbol in __asan_init __ubsan_handle_; do
    if ! nm build-asan/tests/toposhot_tests | grep -c "$symbol" > /dev/null; then
      echo "build-asan/tests/toposhot_tests lacks $symbol: the Asan build is not sanitized" >&2
      exit 1
    fi
  done
  run_tests build-asan
  # The fault-injection layer exercises hook/teardown paths (injector
  # outliving scheduled sim callbacks, node restarts mid-flight) that only
  # ASan can vouch for; pin its suite explicitly so a filter change in the
  # main run can never silently drop it. The tracing/diagnostics suites ride
  # along: span open/close bookkeeping and the ring-walk visit() are exactly
  # the kind of index arithmetic ASan exists for. The strategy-seam suites
  # (Strategy*, Dethna*, TxProbe*) too: rival strategies drive raw
  # announce/echo bookkeeping across node restarts. The world-fork suites
  # (SnapshotWorld*, ForkWorld*, PeerLifetime*) are here because snapshot
  # restore rebuilds raw sink pointers and Peer auto-detach is precisely a
  # use-after-free contract — only ASan can prove the sink slot swap works.
  # The batched-delivery suites (BatchDelivery*, FifoClock*, PayloadArena*)
  # ride here too: the drain loop holds references across batch-map
  # mutation and the arena recycles/releases chunks under live handles —
  # exactly the lifetime bugs ASan exists for. The monitor suites
  # (LinkTable*, TopologyMonitor*, MonitorRpc*, MonitorGolden*, etc.) join
  # them: the daemon hands shared_ptr snapshots across a writer/reader
  # boundary while concurrent readers race the epoch loop — the
  # concurrent-reader test is only meaningful with ASan watching. The
  # telemetry-plane suites (EventLog*, EpochStats via TopologyMonitor*,
  # Health*, Prometheus*) complete the set: the event log takes concurrent
  # appends from RPC reader threads (including the reader-vs-epoch-loop
  # race on topo_getMetrics / topo_getHealth inside MonitorRpc*), and the
  # exposition walks histogram bucket arrays — ring and index arithmetic
  # ASan should watch. The mempool suites (MempoolTest*, the parameterized
  # Seeds/MempoolFuzz*, FlatHashMap*, FlatPriceIndex*) close the list: the
  # pool's open-addressing index shifts buckets on erase and hands out
  # pointers into its queues, and the fuzz runs check_invariants() after
  # every step — this pass is where an assert-only precondition fires.
  echo "== pass 3: fault-injection + tracing + strategy suites under ASan (focused) =="
  ./build-asan/tests/toposhot_tests \
    --gtest_filter='Fault*:TraceRing*:SpanIds*:SpanTracer*:ChromeTrace*:DiagnosticsAnnex*:ProbeCausePlumbing*:GoldenDeterminism*:Strategy*:Dethna*:TxProbe*:SnapshotWorld*:ForkWorld*:PeerLifetime*:BatchDelivery*:FifoClock*:PayloadArena*:LinkTable*:TopologyMonitor*:TopologyDiffTest*:MonitorStatusTest*:MonitorJson*:MonitorSchedule*:MonitorRpc*:MonitorGolden*:EvaluateTracking*:EventLog*:Health*:Prometheus*:Mempool*:*MempoolFuzz*:FlatHashMap*:FlatPriceIndex*'
fi

echo "All checks passed."
