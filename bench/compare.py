"""Compare two sets of benchmark runs.

    python3 bench/compare.py bench/out/before.json bench/out/after.json

Each file is what `run.py --workload all --runs N --out FILE` writes.
For every workload and end-to-end metric this prints both medians, both
quartile ranges, the change of the median, and whether the second set is
worse than the first by more than the metric's bound in BENCHMARK.json.
It exits 1 if any metric is, or if the two sets fail a different share of
their ops.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """(q1, median, q3).  A value of None, a percentile past the completed
    ops when too many failed, counts as +inf; with one among the values the
    quartiles are nearest-rank, as interpolating with inf gives nan."""
    values = sorted(math.inf if v is None else v for v in values)
    if len(values) >= 2 and math.isfinite(values[-1]):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q1, q2, q3
    n = len(values)
    return tuple(values[max(0, math.ceil(q * n) - 1)] for q in (0.25, 0.5, 0.75))


def _runs(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    return {
        name: [r for r in runs if not r.get("traced")]
        for name, runs in doc["runs"].items()
    }


def compare(before: dict, after: dict, metrics: list) -> list:
    """Rows of (workload, metric, unit, a, b, change, verdict)."""
    rows = []
    for workload in sorted(before.keys() & after.keys()):
        a_runs, b_runs = before[workload], after[workload]
        if not a_runs or not b_runs:
            continue
        share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for rs in (a_runs, b_runs)]
        verdict = "same" if share[0] == share[1] else "DIFFERENT"
        rows.append((workload, "failed share", "", (share[0],) * 3, (share[1],) * 3,
                     share[1] - share[0], verdict))
        for m in metrics:
            a = quartiles([r["metrics"][m["name"]]["value"] for r in a_runs])
            b = quartiles([r["metrics"][m["name"]]["value"] for r in b_runs])
            # Only a percentile is ever infinite, and it is lower-is-better.
            if not math.isfinite(b[1]):
                rows.append((workload, m["name"], m["unit"], a, b, math.inf, "WORSE"))
                continue
            if not math.isfinite(a[1]):
                rows.append((workload, m["name"], m["unit"], a, b, -math.inf, "better"))
                continue
            change = (b[1] - a[1]) / a[1]
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "WORSE"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append((workload, m["name"], m["unit"], a, b, change, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(_runs(argv[0]), _runs(argv[1]), metrics)
    print(f"{'workload':10s} {'metric':14s} {'median A':>12s} {'IQR A':>21s} "
          f"{'median B':>12s} {'IQR B':>21s} {'change':>8s}  verdict")
    bad = False
    for workload, metric, unit, a, b, change, verdict in rows:
        bad |= verdict in ("WORSE", "DIFFERENT")
        print(f"{workload:10s} {metric:14s} {a[1]:12.4g} {a[0]:10.4g}-{a[2]:<10.4g} "
              f"{b[1]:12.4g} {b[0]:10.4g}-{b[2]:<10.4g} {change:+8.2%}  {verdict} {unit}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
