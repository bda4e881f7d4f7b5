#!/usr/bin/env python3
"""Gate for benchmark results saved as JSON lines (the last stdout line of
each perfbench/run.py run, one run per line, one workload per file).

    python3 perfbench/gate.py spread RUNS.jsonl
        median, quartiles and spread of every end-to-end metric, against
        the metric's bound in BENCHMARK.json (steady: spread <= bound / 3).

    python3 perfbench/gate.py compare BASE.jsonl CHANGE.jsonl
        per metric, the change's median against the base's: "regression"
        when worse by more than the bound, "unresolved" when the base's own
        spread exceeds the bound and the runs overlap. For traced runs
        (per-layer metrics), line i of BASE and line i of CHANGE must come
        from the same seed, and their exact counts must be identical.

Exit status 1 when any metric regresses, a spread exceeds its bound, or an
exact count drifts.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

EXACT_PREFIXES = ("sim.", "p2p.", "mempool.", "core.", "monitor.")


def is_exact_count(name):
    """Per-layer metrics that must repeat exactly for the same seed: the
    work counts of sim, p2p, mempool, core and monitor (not host times)."""
    return name.startswith(EXACT_PREFIXES) and not name.endswith(("_ms", "_us"))


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def spread_report(runs, spec):
    """Rows of (name, median, q1, q3, spread, bound, status)."""
    rows = []
    for m in spec["end_to_end"]:
        v = values(runs, m["name"])
        q1, q2, q3 = stats.quartiles(v)
        s = stats.spread(v)
        status = "steady" if s <= m["bound"] / 3 else "ok" if s <= m["bound"] else "TOO WIDE"
        rows.append((m["name"], q2, q1, q3, s, m["bound"], status))
    return rows


def compare_report(base, change, spec):
    """Rows of (name, base median, change median, worse_by, status)."""
    rows = []
    for m in spec["end_to_end"]:
        b, c = values(base, m["name"]), values(change, m["name"])
        worse = stats.worse_by(statistics.median(b), statistics.median(c), m["better"])
        if stats.regressed(b, c, m["better"], m["bound"]):
            status = "REGRESSION"
        elif stats.spread(b) > m["bound"] and not all(
                stats.worse_by(x, y, m["better"]) < 0 for x in b for y in c):
            status = "unresolved"
        else:
            status = "ok"
        rows.append((m["name"], statistics.median(b), statistics.median(c), worse, status))
    return rows


def count_drift(base, change):
    """(run index, metric, base value, change value) for every exact count
    that differs between paired traced runs."""
    drift = []
    for i, (b, c) in enumerate(zip(base, change)):
        for name, mb in b["metrics"].items():
            if is_exact_count(name) and mb["value"] != c["metrics"].get(name, {}).get("value"):
                drift.append((i, name, mb["value"], c["metrics"].get(name, {}).get("value")))
    return drift


def main(argv):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if len(argv) == 2 and argv[0] == "spread":
        bad = False
        for name, med, q1, q3, s, bound, status in spread_report(load(argv[1]), spec):
            print(f"{name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {s:7.4f}  bound {bound:5.3f}  {status}")
            bad |= status == "TOO WIDE"
        return 1 if bad else 0
    if len(argv) == 3 and argv[0] == "compare":
        base, change = load(argv[1]), load(argv[2])
        if "setup_s" not in base[0]["metrics"]:
            drift = count_drift(base, change)
            for i, name, b, c in drift:
                print(f"run {i}: {name} drifted {b} -> {c}")
            print("exact counts identical" if not drift else f"{len(drift)} counts drifted")
            return 1 if drift else 0
        bad = False
        for name, b, c, worse, status in compare_report(base, change, spec):
            print(f"{name:14s} base {b:12.6g}  change {c:12.6g}  worse by {worse:+8.4f}  {status}")
            bad |= status == "REGRESSION"
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
