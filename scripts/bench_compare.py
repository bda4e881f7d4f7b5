#!/usr/bin/env python3
"""Compare google-benchmark results against a committed baseline.

Two subcommands:

  normalize  — fold one or more raw google-benchmark JSON files (produced
               with --benchmark_format=json) into the normalized baseline
               schema (toposhot-bench-v1). Used to create or refresh
               BENCH_baseline.json.

  compare    — check raw google-benchmark JSON files against a baseline
               with a relative tolerance band. Exits non-zero when any
               benchmark's throughput (items_per_second, falling back to
               inverse real time) falls below baseline * (1 - tolerance).

The baseline holds host time only. The tolerance band exists because
benchmarks on shared CI runners jitter; see docs/PERFORMANCE.md for the
policy (default 25% on CI, tighter locally). Regressions report every
offending benchmark before exiting. Deterministic behaviour (recall, probe
counts, event mix) is not gated here: tier-1 ctest byte-compares those
artifacts against tests/expected/.

Only the Python standard library is used.
"""

import argparse
import json
import sys

SCHEMA = "toposhot-bench-v1"


def load_results(path):
    """One google-benchmark JSON file -> {name: {"items_per_second", "real_time_ns"}}.

    A run with --benchmark_repetitions reports a "median" aggregate per
    benchmark; that median stands for the benchmark under its run_name, so
    one slow repetition cannot fail the gate. Without repetitions, each
    benchmark's single run is used.
    """
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        sys.exit(f"error: {path} is not google-benchmark JSON")
    runs, medians = {}, {}
    for b in doc["benchmarks"]:
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        real_ns = float(b.get("real_time", 0.0)) * scale
        ips = b.get("items_per_second")
        if ips is None and real_ns > 0:
            ips = 1e9 / real_ns  # one item per iteration
        entry = {"items_per_second": float(ips) if ips is not None else 0.0,
                 "real_time_ns": real_ns}
        if b.get("run_type") != "aggregate":
            runs[b["name"]] = entry
        elif b.get("aggregate_name") == "median":
            medians[b["run_name"]] = entry
    return {**runs, **medians}


def split_spec(spec):
    """"suite=path" labels the suite; a bare path is labeled by its file stem."""
    if "=" in spec:
        return spec.split("=", 1)
    return spec.rsplit("/", 1)[-1].removesuffix(".json"), spec


def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path} is not a {SCHEMA} document")
    return doc


def cmd_normalize(args):
    suites = {}
    for spec in args.inputs:
        suite, path = split_spec(spec)
        suites[suite] = load_results(path)
    doc = {
        "schema": SCHEMA,
        "note": args.note,
        "tolerance": args.tolerance,
        "suites": suites,
    }
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    n = sum(len(v) for v in suites.values())
    print(f"wrote {args.output}: {len(suites)} suite(s), {n} benchmark(s)")
    return 0


def cmd_compare(args):
    baseline = load_baseline(args.baseline)
    tolerance = args.tolerance if args.tolerance is not None else baseline.get("tolerance", 0.25)
    regressions = []
    checked = 0
    for spec in args.inputs:
        suite, path = split_spec(spec)
        base_suite = baseline["suites"].get(suite)
        if base_suite is None:
            print(f"warning: suite '{suite}' not in baseline, skipping")
            continue
        current = load_results(path)
        for name, cur in sorted(current.items()):
            base = base_suite.get(name)
            if base is None:
                print(f"  new       {suite}/{name}: {cur['items_per_second']:.3g} items/s")
                continue
            checked += 1
            floor = base["items_per_second"] * (1.0 - tolerance)
            ratio = (cur["items_per_second"] / base["items_per_second"]
                     if base["items_per_second"] > 0 else 1.0)
            status = "ok" if cur["items_per_second"] >= floor else "REGRESSED"
            print(f"  {status:<9} {suite}/{name}: {ratio:.2f}x of baseline "
                  f"({cur['items_per_second']:.3g} vs {base['items_per_second']:.3g} items/s)")
            if status != "ok":
                regressions.append(f"{suite}/{name}")
    if checked == 0:
        sys.exit("error: no benchmarks matched the baseline — wrong suite labels?")
    if regressions:
        print(f"\n{len(regressions)} result(s) outside the {tolerance:.0%} tolerance band:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"\nall {checked} benchmark(s) within the {tolerance:.0%} tolerance band")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    norm = sub.add_parser("normalize", help="fold raw gbench JSON into a baseline")
    norm.add_argument("inputs", nargs="+", metavar="SUITE=PATH",
                      help="raw google-benchmark JSON, optionally labeled suite=path")
    norm.add_argument("-o", "--output", default="BENCH_baseline.json")
    norm.add_argument("--note", default="", help="free-text provenance (machine, commit)")
    norm.add_argument("--tolerance", type=float, default=0.25,
                      help="default tolerance band recorded in the baseline")
    norm.set_defaults(func=cmd_normalize)

    comp = sub.add_parser("compare", help="check raw gbench JSON against a baseline")
    comp.add_argument("baseline")
    comp.add_argument("inputs", nargs="+", metavar="SUITE=PATH")
    comp.add_argument("--tolerance", type=float, default=None,
                      help="override the baseline's tolerance band")
    comp.set_defaults(func=cmd_compare)

    args = ap.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
