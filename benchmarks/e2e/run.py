"""The benchmark's one command.

::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--repeat K] [--jobs J]
                                  [--out FILE]

With ``--workload`` it runs that workload in this interpreter, prints every
metric by name with its unit and ends with one JSON line::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones and writes the spans as JSON to ``--out``
(default ``benchmarks/e2e/.scratch/<workload>.spans.json``).
Without ``--workload`` it runs every workload, each in its own fresh
interpreter, ``--repeat`` times on consecutive seeds, prints every result and
writes them all to ``--out`` (the input of ``compare.py``; spans then go to
``<out stem>.<workload>.spans.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space for durable directories and replay logs, inside the checkout.
SCRATCH = Path(__file__).resolve().parent / ".scratch"

if __package__ in (None, ""):
    # Started as a script: import siblings as the ``benchmarks.e2e`` package
    # and keep this directory's file names from shadowing the stdlib.
    sys.path[0] = str(ROOT)


def _require_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: the program under test is missing ({source}/repro)")
    if str(source) not in sys.path:
        sys.path.insert(1, str(source))


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="~1 %% sizes and a fraction of a second per phase")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload on consecutive seeds (all-workloads mode)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="workloads run at once (all-workloads mode; keep 1 to measure)")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, benchmark: dict) -> int:
    from benchmarks.e2e import library, serving
    from benchmarks.e2e.gen import SPECS

    if args.workload not in SPECS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    spec = SPECS[args.workload]
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    setups = 1 if (args.trace or args.smoke) else 5
    if args.smoke:
        spec = spec.smoke()
        seconds = args.seconds if args.seconds is not None else 0.4
    SCRATCH.mkdir(exist_ok=True)
    runner = library if spec.kind == "library" else serving
    outcome = runner.run(spec, args.seed, seconds, bool(args.trace), setups, SCRATCH)

    outcome.metrics["loadgen.failed_ops_ratio"] = outcome.failed / max(
        1, outcome.attempted + outcome.activations_expected
    )
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{spec.name:18s} {entry['name']:40s} {value:14.4f} {entry['unit']}")
    for note in outcome.notes:
        print(f"{spec.name:18s} note: {note}")
    for problem in outcome.problems:
        print(f"{spec.name:18s} PROBLEM: {problem}")
    if outcome.spans is not None:
        spans_path = args.out or SCRATCH / f"{spec.name}.spans.json"
        spans_path.write_text(json.dumps(outcome.spans.as_json()), encoding="utf-8")
        print(f"{spec.name:18s} note: spans written to {spans_path}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _spawn(args: argparse.Namespace, workload: str, seed: int) -> dict:
    """One workload run in a fresh interpreter: its output and result line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--trace", str(args.trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.out is not None and args.trace:
        spans = args.out.with_name(f"{args.out.stem}.{workload}.spans.json")
        command += ["--out", str(spans)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {
        "workload": workload, "seed": seed, "trace": args.trace, "result": result,
        "exit": done.returncode, "output": "\n".join(lines[:-1] if result else lines),
        "errors": done.stderr,
    }


def run_all(args: argparse.Namespace, benchmark: dict) -> int:
    todo = [
        (entry["name"], args.seed + repeat)
        for entry in benchmark["workloads"] for repeat in range(args.repeat)
    ]
    # More than one job at a time disturbs the timings: for --smoke only.
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        runs = list(pool.map(lambda item: _spawn(args, *item), todo))
    status = 0
    for run in runs:
        print(run.pop("output"))
        errors = run.pop("errors")
        if run.pop("exit") != 0:
            status = 1
            print(f"{run['workload']:18s} FAILED\n{errors}", end="")
    if args.out is not None:
        kept = [run for run in runs if run["result"] is not None]
        args.out.write_text(json.dumps({"runs": kept}, indent=1), encoding="utf-8")
        print(f"results written to {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _require_program()
    benchmark = load_benchmark()
    if args.workload is None:
        return run_all(args, benchmark)
    return run_workload(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
