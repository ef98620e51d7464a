"""Synthetic experimental workloads (Section 6.1, Table 2 of the paper —
"Triggers over XML Views of Relational Data", ICDE 2005).

The evaluation schema is a hierarchy of relational tables: for depth 2 it is
the product/vendor schema of the running example; deeper hierarchies add
"ancestor" tables above the product level, each child table carrying a
foreign key to its parent.  The XML view nests children inside parents, the
monitored element is the top-level one, and the ``count(...) >= 2`` predicate
sits on the lowest (vendor-like) level.

:class:`~repro.workloads.generator.HierarchyWorkload` builds the database,
the view, the structurally similar trigger population, and the update
workload for any point of Table 2's parameter space;
:class:`~repro.workloads.harness.ExperimentHarness` wires and measures one
parameter point; the per-figure sweeps are ``benchmarks/bench_*.py``.
"""

from repro.workloads.parameters import PAPER_DEFAULTS, WorkloadParameters
from repro.workloads.generator import HierarchyWorkload
from repro.workloads.harness import (
    ConcurrentRunResult,
    ExperimentHarness,
    run_concurrent_clients,
)

__all__ = [
    "PAPER_DEFAULTS",
    "ConcurrentRunResult",
    "ExperimentHarness",
    "HierarchyWorkload",
    "WorkloadParameters",
    "run_concurrent_clients",
]
