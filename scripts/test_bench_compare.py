#!/usr/bin/env python3
"""Self-test for bench_compare.py: a synthetic regression must fail the gate.

Run directly (or via ctest as `bench_compare_selftest`). Builds fake
google-benchmark JSON in a temp dir, normalizes a baseline from it, then
checks that `compare` passes on identical numbers, passes within the
tolerance band, and exits non-zero on a regression beyond the band; that
an aggregates-only document is judged by its medians; and that anything
but google-benchmark JSON is refused.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")


def gbench_json(path, items_per_second):
    doc = {
        "benchmarks": [
            {"name": "BM_Fast", "real_time": 10.0, "time_unit": "ns",
             "items_per_second": items_per_second},
            {"name": "BM_Steady", "real_time": 20.0, "time_unit": "ns",
             "items_per_second": 5.0e6},
        ]
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def gbench_aggregates_json(path, median, mean):
    """BM_Fast as --benchmark_report_aggregates_only=true reports it."""
    doc = {"benchmarks": []}
    for aggregate, ips in (("mean", mean), ("median", median), ("stddev", 1.0e4)):
        doc["benchmarks"].append(
            {"name": f"BM_Fast_{aggregate}", "run_name": "BM_Fast",
             "run_type": "aggregate", "aggregate_name": aggregate,
             "real_time": 10.0, "time_unit": "ns", "items_per_second": ips})
    with open(path, "w") as f:
        json.dump(doc, f)


def run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)


def main():
    with tempfile.TemporaryDirectory() as d:
        base_raw = os.path.join(d, "micro.json")
        baseline = os.path.join(d, "BENCH_baseline.json")
        gbench_json(base_raw, 1.0e6)

        r = run("normalize", f"micro={base_raw}", "-o", baseline, "--tolerance", "0.10")
        assert r.returncode == 0, f"normalize failed: {r.stderr}"

        # Identical numbers: pass.
        r = run("compare", baseline, f"micro={base_raw}")
        assert r.returncode == 0, f"identical run should pass: {r.stdout}{r.stderr}"

        # 5% slower with a 10% band: still pass.
        within = os.path.join(d, "within.json")
        gbench_json(within, 0.95e6)
        r = run("compare", baseline, f"micro={within}")
        assert r.returncode == 0, f"within-band run should pass: {r.stdout}{r.stderr}"

        # 40% slower: the synthetic regression must exit non-zero.
        regressed = os.path.join(d, "regressed.json")
        gbench_json(regressed, 0.6e6)
        r = run("compare", baseline, f"micro={regressed}")
        assert r.returncode != 0, "regression beyond the band must fail the gate"
        assert "REGRESSED" in r.stdout and "BM_Fast" in r.stdout, r.stdout

        # Tolerance override flips the verdict.
        r = run("compare", baseline, f"micro={regressed}", "--tolerance", "0.5")
        assert r.returncode == 0, "explicit wide band should pass"

        # Aggregates-only documents (--benchmark_repetitions=N
        # --benchmark_report_aggregates_only=true): the median stands for
        # each benchmark under its run_name, so one slow repetition that
        # drags the mean down 40% still passes...
        aggregated = os.path.join(d, "aggregated.json")
        gbench_aggregates_json(aggregated, median=0.95e6, mean=0.6e6)
        r = run("compare", baseline, f"micro={aggregated}")
        assert r.returncode == 0, f"median within band should pass: {r.stdout}{r.stderr}"
        assert "BM_Fast:" in r.stdout and "_mean" not in r.stdout, r.stdout

        # ...and a median beyond the band fails under the plain name.
        gbench_aggregates_json(aggregated, median=0.6e6, mean=0.95e6)
        r = run("compare", baseline, f"micro={aggregated}")
        assert r.returncode != 0, "a median beyond the band must fail the gate"
        assert "REGRESSED micro/BM_Fast:" in r.stdout, r.stdout

        # Only google-benchmark JSON is read: a deterministic sweep artifact
        # belongs to the tier-1 expectation checks, not to this gate.
        sweep = os.path.join(d, "sweep.json")
        with open(sweep, "w") as f:
            json.dump({"bench": "fault_recall", "cells": []}, f)
        r = run("compare", baseline, f"micro={sweep}")
        assert r.returncode != 0 and "not google-benchmark JSON" in r.stderr, r.stderr

    print("bench_compare self-test: OK")


if __name__ == "__main__":
    main()
