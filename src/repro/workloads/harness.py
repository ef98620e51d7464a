"""Experiment harness for the paper's evaluation (Section 6, App. G).

:meth:`ExperimentHarness.build_setup` wires one Table 2 parameter point to
one execution strategy (a translated :class:`ActiveViewService` mode or the
MATERIALIZED baseline), :meth:`~ExperimentHarness.measure` runs independent
leaf updates one statement at a time and reports the average time per update
(the paper's measurement), and :meth:`~ExperimentHarness.compile_time` times
trigger translation.  The per-figure sweeps live in ``benchmarks/bench_*.py``,
which wrap these methods with pytest-benchmark.
:func:`run_concurrent_clients` drives a started
:class:`~repro.serving.ActiveViewServer` with closed-loop client threads.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.database import Database
from repro.relational.dml import Statement
from repro.serving.server import ActiveViewServer
from repro.workloads.generator import HierarchyWorkload
from repro.workloads.parameters import WorkloadParameters

__all__ = [
    "ExperimentSetup",
    "ExperimentHarness",
    "ConcurrentRunResult",
    "run_concurrent_clients",
]


@dataclass
class ExperimentSetup:
    """A fully wired system for one parameter point and one execution mode."""

    parameters: WorkloadParameters
    workload: HierarchyWorkload
    database: Database
    service: ActiveViewService | None
    baseline: MaterializedBaseline | None
    collected: list
    statements: list[Statement] = field(default_factory=list)

    def run_statement(self, statement: Statement) -> None:
        """Execute one workload statement through whichever system is wired."""
        if self.service is not None:
            self.service.execute(statement)
        elif self.baseline is not None:
            self.baseline.execute(statement)
        else:  # pragma: no cover - defensive
            self.database.execute(statement)

    @property
    def fired_count(self) -> int:
        """Total number of XML trigger firings recorded so far."""
        if self.service is not None:
            return len(self.service.fired)
        if self.baseline is not None:
            return len(self.baseline.fired)
        return 0


@dataclass
class ConcurrentRunResult:
    """Outcome of driving one server with concurrent closed-loop clients."""

    shards: int
    clients: int
    statements: int
    seconds: float
    activations: int
    errors: list[BaseException] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Aggregate statements per second across all clients."""
        return self.statements / self.seconds if self.seconds else 0.0


def run_concurrent_clients(
    server: ActiveViewServer,
    streams: Sequence[Sequence[Statement]],
    *,
    timeout: float = 120.0,
) -> ConcurrentRunResult:
    """Drive a started server with one closed-loop client thread per stream.

    Every client submits its statements in order, waiting for each result
    before sending the next (the classic request/response client).  The
    clients start together behind a barrier; the measured wall time spans
    from the barrier release until the last client finishes, so
    ``result.throughput`` is the server's *aggregate* serving rate under
    concurrent load — queue waiting, micro-batching, trigger processing and
    action latency included.
    """
    activations_before = server.activations_published
    errors: list[BaseException] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1)

    def client(stream: Sequence[Statement]) -> None:
        barrier.wait()
        for statement in stream:
            try:
                server.execute(statement, timeout=timeout)
            except BaseException as exc:  # noqa: BLE001 - recorded for the caller
                with errors_lock:
                    errors.append(exc)
                return

    threads = [
        threading.Thread(target=client, args=(stream,), name=f"client-{index}", daemon=True)
        for index, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return ConcurrentRunResult(
        shards=server.shard_count,
        clients=len(streams),
        statements=sum(len(stream) for stream in streams),
        seconds=elapsed,
        activations=server.activations_published - activations_before,
        errors=errors,
    )


class ExperimentHarness:
    """Builds experiment setups and measures them."""

    MATERIALIZED = "materialized"

    def __init__(
        self,
        base_parameters: WorkloadParameters | None = None,
        updates: int = 20,
    ) -> None:
        self.base_parameters = base_parameters or WorkloadParameters()
        self.updates = updates

    # ------------------------------------------------------------------ setup

    def build_setup(
        self,
        parameters: WorkloadParameters,
        mode: ExecutionMode | str,
        *,
        use_compiled_plans: bool = True,
        backend: str | None = None,
    ) -> ExperimentSetup:
        """Create the database, view, triggers and chosen execution system.

        ``mode`` is an :class:`ExecutionMode` or :attr:`MATERIALIZED`.
        ``use_compiled_plans`` toggles the compiled physical engine (on by
        default; off runs the interpreted oracle).  ``backend`` selects an
        execution backend by name (e.g. ``"sqlite"``); the generated trigger
        statements then run inside that engine against a mirrored copy of
        the workload's tables.
        """
        workload = HierarchyWorkload(parameters)
        database = workload.build_database()
        view = workload.build_view()
        collected: list = []

        if isinstance(mode, str) and mode == self.MATERIALIZED:
            baseline = MaterializedBaseline(database)
            baseline.register_view(view)
            baseline.register_action("collect", collected.append)
            for definition in workload.trigger_definitions():
                baseline.create_trigger(parse_trigger(definition))
            return ExperimentSetup(parameters, workload, database, None, baseline, collected)

        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        service = ActiveViewService(
            database,
            mode=mode,
            use_compiled_plans=use_compiled_plans,
            backend=backend,
        )
        service.register_view(view)
        service.register_action("collect", collected.append)
        service.register_triggers_bulk(workload.trigger_definitions())
        return ExperimentSetup(parameters, workload, database, service, None, collected)

    # ------------------------------------------------------------------ measurement

    def measure(
        self,
        setup: ExperimentSetup,
        statements: Sequence[Statement] | None = None,
    ) -> tuple[float, float]:
        """Run the update workload; returns (avg seconds per update, fired/update)."""
        if statements is None:
            statements = setup.workload.update_statements(self.updates, setup.database)
        setup.statements = list(statements)
        fired_before = setup.fired_count
        durations: list[float] = []
        for statement in setup.statements:
            started = time.perf_counter()
            setup.run_statement(statement)
            durations.append(time.perf_counter() - started)
        fired = setup.fired_count - fired_before
        avg = statistics.fmean(durations) if durations else 0.0
        return avg, fired / max(1, len(setup.statements))

    def compile_time(self, trigger_count: int = 50) -> dict:
        """Section 6 compile-time claim: time to translate one XML trigger."""
        parameters = self.base_parameters.with_(num_triggers=1, satisfied_triggers=1)
        workload = HierarchyWorkload(parameters)
        database = workload.build_database()
        view = workload.build_view()
        service = ActiveViewService(database, mode=ExecutionMode.GROUPED_AGG)
        service.register_view(view)
        service.register_action("collect", lambda node: None)
        definitions = HierarchyWorkload(
            parameters.with_(num_triggers=trigger_count)
        ).trigger_definitions()
        durations = []
        for definition in definitions[:trigger_count]:
            started = time.perf_counter()
            service.create_trigger(definition)
            durations.append(time.perf_counter() - started)
        return {
            "triggers_compiled": len(durations),
            "avg_compile_ms": statistics.fmean(durations) * 1000.0,
            "max_compile_ms": max(durations) * 1000.0,
            "first_compile_ms": durations[0] * 1000.0,
        }

