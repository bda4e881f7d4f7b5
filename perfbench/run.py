#!/usr/bin/env python3
"""TopoShot benchmark: builds the program from this checkout's sources, runs
one seeded workload and prints its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the traced variant and prints every per-layer metric. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. Build output and the human-readable
tables go to standard error. See perfbench/GUIDE.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
# Hard cap on a timed phase, so a run that cannot reach its sample count
# still ends inside the 180 s a run may take.
MAX_PHASE_SECONDS = 120
RUN_TIMEOUT_SECONDS = 175
FIRST_BUILD_TIMEOUT_SECONDS = 880


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no TopoShot sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=FIRST_BUILD_TIMEOUT_SECONDS)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=FIRST_BUILD_TIMEOUT_SECONDS)
    return build_dir / "perfbench"


def end_to_end(raw, spec):
    """The end-to-end metrics of one untraced run, keyed by name."""
    work = raw["work_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "pairs_per_s": raw["pairs"] / raw["work_s"],
        "work_ms_p50": statistics.median(work),
        "work_ms_tail": stats.percentile(work, spec["work_tail_percentile"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "recall": raw["recall"],
        "precision": raw["precision"],
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in specs:
        log(f"unknown workload {args.workload!r}; choose from {sorted(specs)}")
        return 2
    spec = specs[args.workload]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    inputs = dict(spec["inputs"])
    inputs["min_samples"] = stats.min_samples(spec["work_tail_percentile"])
    inputs["max_seconds"] = MAX_PHASE_SECONDS
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    cmd += [f"--{k}={v}" for k, v in inputs.items()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_SECONDS)
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for failure in raw["failures"]:
        log("FAILED:", failure)

    if args.trace:
        wanted = bench["per_layer"]
        values = {m["name"]: raw["layers"].get(m["name"], 0.0) for m in wanted}
        log(f"\nper-layer ledger: {args.workload}, seed {args.seed}")
        for name in sorted(raw["layers"]):
            log(f"  {name:32s} {raw['layers'][name]:.6g}")
    else:
        wanted = bench["end_to_end"]
        values = end_to_end(raw, spec)
        n, q = len(raw["work_ms"]), spec["work_tail_percentile"]
        log(f"\n{args.workload}, seed {args.seed}: {n} work samples (tail p{q:g})")
        if stats.samples_beyond(n, q) < stats.MIN_BEYOND:
            log(f"warning: fewer than {stats.MIN_BEYOND} work samples beyond p{q:g}")
        for m in wanted:
            log(f"  {m['name']:14s} {values[m['name']]:14.6g} {m['unit']}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
