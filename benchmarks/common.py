"""Shared setup for the benchmark suite.

Every benchmark regenerates one figure/table of the paper's evaluation
(Section 6 and Appendix G) on a scaled-down workload so the whole suite runs
in minutes on a laptop.  The *shapes* the paper reports (who wins, how the
curves scale) are preserved; absolute numbers differ because the substrate is
a pure-Python engine rather than DB2 on the paper's hardware.

Set the environment variable ``REPRO_BENCH_SCALE`` to scale the workload
sizes (1.0 = the sizes used below; larger values approach the paper's).

These scripts reproduce the paper's figures; they assert only that triggers
fired and gate nothing.  The merge gate is the repository benchmark
(``BENCHMARK.json``, run by ``benchmarks/e2e/run.py``).
"""

from __future__ import annotations

import os

from repro.core.service import ExecutionMode
from repro.workloads import ExperimentHarness, WorkloadParameters

#: Multiplier applied to the scaled-down benchmark sizes.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Scaled-down stand-in for the bold column of Table 2.
BENCH_DEFAULTS = WorkloadParameters(
    depth=2,
    leaf_tuples=max(64, int(4_096 * BENCH_SCALE)),
    fanout=32,
    num_triggers=max(1, int(200 * BENCH_SCALE)),
    satisfied_triggers=20,
    seed=42,
)

#: How many prepared update statements each benchmark may consume.
STATEMENT_POOL = 400


def build_setup(parameters: WorkloadParameters, mode: ExecutionMode | str):
    """Build a wired system plus a pool of update statements to time."""
    harness = ExperimentHarness(parameters, updates=1)
    setup = harness.build_setup(parameters, mode)
    statements = setup.workload.update_statements(STATEMENT_POOL, setup.database)
    return setup, statements


class StatementRunner:
    """Callable that executes the next prepared statement on each invocation.

    Re-running the *same* statement would be a no-op update (empty pruned
    transition tables) and would not exercise the trigger path, so each timed
    call consumes a fresh statement from the pool.
    """

    def __init__(self, setup, statements):
        self.setup = setup
        self.statements = list(statements)
        self.position = 0

    def __call__(self):
        statement = self.statements[self.position % len(self.statements)]
        self.position += 1
        self.setup.run_statement(statement)

    @property
    def fired(self) -> int:
        return self.setup.fired_count


def time_updates(benchmark, parameters: WorkloadParameters, mode, rounds: int = 10):
    """Benchmark the average per-update time for one parameter point / mode."""
    setup, statements = build_setup(parameters, mode)
    runner = StatementRunner(setup, statements)
    benchmark.pedantic(runner, rounds=rounds, iterations=1, warmup_rounds=2)
    return runner
