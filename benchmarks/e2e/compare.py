"""Compare two result files written by ``run.py --out``.

::

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) it prints both medians, the
relative difference of B against A in the metric's *worse* direction, the
bound ``BENCHMARK.json`` fixes for the metric, and a label:

* ``within``     — B is no worse than A by more than the bound;
* ``outside``    — B is worse than A by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over its median, needs at least four runs) is wider than the
  bound, so a difference of that size cannot be told from noise.

The exit code is 1 when any pairing is ``outside``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.run import load_benchmark


def _values(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of the untraced runs in a result file."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (``None`` under four runs)."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else None


def compare(first: Path, second: Path, benchmark: dict) -> int:
    before, after = _values(first), _values(second)
    outside = 0
    print(f"{'workload':18s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  label")
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                continue
            a, b = statistics.median(before[key]), statistics.median(after[key])
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            spreads = [s for s in (spread(before[key]), spread(after[key])) if s is not None]
            if any(s > metric["bound"] for s in spreads):
                label = "unresolved"
            elif worse > metric["bound"]:
                label = "outside"
                outside += 1
            else:
                label = "within"
            noise = f" (spread {max(spreads):.1%})" if spreads else ""
            print(f"{workload:18s} {metric['name']:16s} {a:12.4f} {b:12.4f} "
                  f"{worse:+9.1%} {metric['bound']:6.0%}  {label}{noise}")
    return 1 if outside else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    return compare(Path(argv[1]), Path(argv[2]), load_benchmark())


if __name__ == "__main__":
    sys.exit(main(sys.argv))
