"""Experiment harness regenerating the paper's evaluation (Section 6, App. G).

Each ``figure_*`` method sweeps one Table 2 parameter exactly as the paper
does, runs a number of independent updates against the leaf table, and
reports the average time per update for each execution strategy.  Updates can
be driven either one statement at a time (the paper's measurement) or through
the set-oriented batch engine (``measure(..., batch_size=N)`` /
:meth:`ExperimentHarness.batch_throughput`), where the trigger pipeline runs
once per batch instead of once per statement.  The benchmarks under
``benchmarks/`` wrap these methods with pytest-benchmark;
``python -m repro.workloads.harness`` prints the full set of series as text
tables (the data behind EXPERIMENTS.md).
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.database import Database
from repro.relational.dml import Statement
from repro.serving.server import ActiveViewServer
from repro.workloads.generator import HierarchyWorkload
from repro.workloads.parameters import WorkloadParameters

__all__ = [
    "ExperimentPoint",
    "ExperimentSetup",
    "ExperimentHarness",
    "ConcurrentRunResult",
    "run_concurrent_clients",
]


@dataclass
class ExperimentPoint:
    """One measured point of one figure."""

    figure: str
    parameter: str
    value: object
    mode: str
    avg_ms: float
    updates: int
    fired_per_update: float

    def as_row(self) -> dict:
        """The point as a flat dictionary (for printing / CSV)."""
        return {
            "figure": self.figure,
            self.parameter: self.value,
            "mode": self.mode,
            "avg_ms_per_update": round(self.avg_ms, 3),
            "fired_per_update": round(self.fired_per_update, 2),
        }


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
    #: Attached write-ahead log when the harness was built with durability on
    #: (``build_setup(..., durable_dir=...)``); ``None`` otherwise.
    wal: object | None = None

    def run_statement(self, statement: Statement) -> None:
        """Execute one workload statement through whichever system is wired."""
        if self.service is not None:
            self.service.execute(statement)
        elif self.baseline is not None:
            self.baseline.execute(statement)
        else:  # pragma: no cover - defensive
            self.database.execute(statement)

    def run_batch(self, statements: Sequence[Statement]) -> None:
        """Execute a group of workload statements as one set-oriented batch.

        The translated systems go through
        :meth:`~repro.core.service.ActiveViewService.execute_batch` (triggers
        fire once per (table, event) over the coalesced deltas); the
        MATERIALIZED baseline has no batch path — it re-materializes per
        statement regardless — so it simply loops.
        """
        if self.service is not None:
            self.service.execute_batch(statements)
        elif self.baseline is not None:
            for statement in statements:
                self.baseline.execute(statement)
        else:  # pragma: no cover - defensive
            self.database.execute_many(statements)

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
    """Builds experiment setups and runs the per-figure sweeps."""

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
        action: str = "collect",
        durable_dir: str | None = None,
        durability_sync: str = "flush",
        use_compiled_plans: bool = True,
        backend: str | None = None,
        use_matching_indexes: bool = True,
    ) -> ExperimentSetup:
        """Create the database, view, triggers and chosen execution system.

        With ``durable_dir`` set, durability is switched **on**: the freshly
        populated database is captured as an initial snapshot in that
        directory and a :class:`~repro.persist.WriteAheadLog` is attached, so
        every measured update is also logged (``durability_sync`` picks the
        append policy).  The same workload therefore runs bit-identically
        with durability on or off — the toggle the WAL-overhead benchmark
        flips (``benchmarks/bench_wal_overhead.py``).

        ``use_compiled_plans`` toggles the compiled physical engine (on by
        default; off runs the interpreted oracle — the comparison the
        evaluation-hot-path benchmark draws).

        ``backend`` selects an execution backend by name (e.g. ``"sqlite"``)
        and wires it through :class:`ActiveViewService`; the generated
        trigger statements then run inside that engine against a mirrored
        copy of the workload's tables (``benchmarks/bench_backend_sqlite.py``
        compares all three engines this way).

        ``use_matching_indexes`` toggles the sublinear matching engine
        (:mod:`repro.matching`; off runs the linear constants-row oracle —
        the comparison ``benchmarks/bench_matching_scale.py`` draws).
        """
        workload = HierarchyWorkload(parameters)
        database = workload.build_database()
        view = workload.build_view()
        collected: list = []
        wal = None
        if durable_dir is not None:
            import pathlib

            from repro.persist import Snapshot, WriteAheadLog
            from repro.persist.recovery import SNAPSHOT_FILE, WAL_FILE

            path = pathlib.Path(durable_dir)
            path.mkdir(parents=True, exist_ok=True)
            wal = WriteAheadLog(path / WAL_FILE, sync=durability_sync)
            # This is a *fresh* setup: discard any records a previous run left
            # in the directory — a stale WAL tail would corrupt recovery of
            # the new snapshot (LSNs restart at 1 here).
            wal.truncate()
            Snapshot.capture(database, wal_lsn=0).write(path / SNAPSHOT_FILE)
            wal.attach(database)

        if isinstance(mode, str) and mode == self.MATERIALIZED:
            baseline = MaterializedBaseline(database)
            baseline.register_view(view)
            baseline.register_action(action, lambda node: collected.append(node))
            for definition in workload.trigger_definitions(action):
                baseline.create_trigger(parse_trigger(definition))
            return ExperimentSetup(parameters, workload, database, None, baseline,
                                   collected, wal=wal)

        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        service = ActiveViewService(
            database,
            mode=mode,
            use_compiled_plans=use_compiled_plans,
            backend=backend,
            use_matching_indexes=use_matching_indexes,
        )
        service.register_view(view)
        service.register_action(action, lambda node: collected.append(node))
        service.register_triggers_bulk(workload.trigger_definitions(action))
        return ExperimentSetup(parameters, workload, database, service, None,
                               collected, wal=wal)

    # ------------------------------------------------------------------ measurement

    def measure(
        self,
        setup: ExperimentSetup,
        statements: Sequence[Statement] | None = None,
        *,
        batch_size: int | None = None,
    ) -> tuple[float, float]:
        """Run the update workload; returns (avg seconds per update, fired/update).

        With ``batch_size`` set (> 1), statements are executed in chunks of
        that size through the set-oriented batch path; the reported average is
        still per *statement*, so per-statement and batched runs are directly
        comparable.
        """
        if statements is None:
            statements = setup.workload.update_statements(self.updates, setup.database)
        setup.statements = list(statements)
        fired_before = setup.fired_count
        durations: list[float] = []
        if batch_size is None or batch_size <= 1:
            for statement in setup.statements:
                started = time.perf_counter()
                setup.run_statement(statement)
                durations.append(time.perf_counter() - started)
            total_statements = len(setup.statements)
        else:
            total_statements = 0
            for start in range(0, len(setup.statements), batch_size):
                chunk = setup.statements[start:start + batch_size]
                started = time.perf_counter()
                setup.run_batch(chunk)
                elapsed = time.perf_counter() - started
                durations.extend([elapsed / len(chunk)] * len(chunk))
                total_statements += len(chunk)
        fired = setup.fired_count - fired_before
        avg = statistics.fmean(durations) if durations else 0.0
        return avg, fired / max(1, total_statements or len(setup.statements))

    def _sweep(
        self,
        figure: str,
        parameter: str,
        values: Iterable[object],
        modes: Sequence[ExecutionMode | str],
        make_parameters: Callable[[object], WorkloadParameters],
    ) -> list[ExperimentPoint]:
        points: list[ExperimentPoint] = []
        for value in values:
            parameters = make_parameters(value)
            for mode in modes:
                setup = self.build_setup(parameters, mode)
                avg_seconds, fired = self.measure(setup)
                points.append(
                    ExperimentPoint(
                        figure=figure,
                        parameter=parameter,
                        value=value,
                        mode=str(mode) if isinstance(mode, str) else mode.value,
                        avg_ms=avg_seconds * 1000.0,
                        updates=len(setup.statements),
                        fired_per_update=fired,
                    )
                )
        return points

    # ------------------------------------------------------------------ figures

    def figure17_num_triggers(
        self,
        trigger_counts: Sequence[int] = (1, 10, 100, 1000),
        modes: Sequence[ExecutionMode] = (
            ExecutionMode.UNGROUPED,
            ExecutionMode.GROUPED,
            ExecutionMode.GROUPED_AGG,
        ),
    ) -> list[ExperimentPoint]:
        """Figure 17: vary the number of (structurally similar) triggers."""
        def make(n: object) -> WorkloadParameters:
            n = int(n)
            base = self.base_parameters
            return base.with_(
                num_triggers=n,
                satisfied_triggers=min(base.satisfied_triggers, n),
            )

        return self._sweep("figure17", "num_triggers", trigger_counts, modes, make)

    def figure18_depth(
        self,
        depths: Sequence[int] = (2, 3, 4, 5),
        modes: Sequence[ExecutionMode] = (ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG),
    ) -> list[ExperimentPoint]:
        """Figure 18: vary the hierarchy depth."""
        return self._sweep(
            "figure18", "depth", depths, modes,
            lambda d: self.base_parameters.with_(depth=int(d)),
        )

    def figure22_fanout(
        self,
        fanouts: Sequence[int] = (16, 32, 64, 128, 256),
        modes: Sequence[ExecutionMode] = (ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG),
    ) -> list[ExperimentPoint]:
        """Figure 22: vary the number of leaf tuples per XML element."""
        return self._sweep(
            "figure22", "fanout", fanouts, modes,
            lambda f: self.base_parameters.with_(fanout=int(f)),
        )

    def figure23_data_size(
        self,
        leaf_tuples: Sequence[int] = (32_000, 64_000, 128_000, 256_000),
        modes: Sequence[ExecutionMode] = (ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG),
    ) -> list[ExperimentPoint]:
        """Figure 23: vary the database size (number of leaf tuples)."""
        return self._sweep(
            "figure23", "leaf_tuples", leaf_tuples, modes,
            lambda n: self.base_parameters.with_(leaf_tuples=int(n)),
        )

    def figure24_satisfied(
        self,
        satisfied: Sequence[int] = (1, 20, 40, 80, 100),
        modes: Sequence[ExecutionMode] = (ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG),
    ) -> list[ExperimentPoint]:
        """Figure 24: vary the number of satisfied triggers per update."""
        def make(n: object) -> WorkloadParameters:
            n = int(n)
            base = self.base_parameters
            return base.with_(
                satisfied_triggers=n,
                num_triggers=max(base.num_triggers, n),
            )

        return self._sweep("figure24", "satisfied_triggers", satisfied, modes, make)

    def ablation_materialized(
        self,
        trigger_counts: Sequence[int] = (1, 10, 100),
    ) -> list[ExperimentPoint]:
        """Extra ablation: translated triggers vs. the MATERIALIZED baseline."""
        return self._sweep(
            "ablation_materialized", "num_triggers", trigger_counts,
            (ExecutionMode.GROUPED_AGG, self.MATERIALIZED),
            lambda n: self.base_parameters.with_(num_triggers=int(n)),
        )

    def batch_throughput(
        self,
        batch_sizes: Sequence[int] = (1, 5, 20),
        modes: Sequence[ExecutionMode] = (ExecutionMode.GROUPED_AGG,),
    ) -> list[ExperimentPoint]:
        """Set-oriented batching ablation on the Figure 17 default workload.

        ``batch_size=1`` is the paper's per-statement execution; larger sizes
        run the same independent updates through ``execute_batch`` so each
        statement trigger fires once per batch with the coalesced deltas.
        Reported times stay per *statement* for direct comparison.
        """
        points: list[ExperimentPoint] = []
        for mode in modes:
            for size in batch_sizes:
                setup = self.build_setup(self.base_parameters, mode)
                avg_seconds, fired = self.measure(setup, batch_size=int(size))
                points.append(
                    ExperimentPoint(
                        figure="batch_throughput",
                        parameter="batch_size",
                        value=int(size),
                        mode=mode.value if isinstance(mode, ExecutionMode) else str(mode),
                        avg_ms=avg_seconds * 1000.0,
                        updates=len(setup.statements),
                        fired_per_update=fired,
                    )
                )
        return points

    def build_server(
        self,
        parameters: WorkloadParameters,
        shard_count: int,
        mode: ExecutionMode = ExecutionMode.GROUPED_AGG,
        *,
        action: str = "collect",
        action_latency: float = 0.0,
        max_batch: int = 32,
    ) -> tuple[ActiveViewServer, HierarchyWorkload]:
        """Wire a sharded :class:`~repro.serving.ActiveViewServer` for one point.

        The data is partitioned by top-element subtree
        (:meth:`HierarchyWorkload.build_sharded_database`) and the full
        trigger population is installed on every shard through the server.
        ``action_latency`` adds a synchronous ``time.sleep`` to the action
        function, modelling the downstream cost of *delivering* a
        notification (the paper's trigger actions notify external users);
        shard workers overlap that latency, which is where shard scaling
        comes from on I/O-bound actions.
        """
        workload = HierarchyWorkload(parameters)
        sharded = workload.build_sharded_database(shard_count)
        server = ActiveViewServer(sharded, mode=mode, max_batch=max_batch)
        server.register_view(workload.build_view())
        collected: list = []
        if action_latency > 0:
            def act(node, _latency=action_latency):
                time.sleep(_latency)
                collected.append(node)
        else:
            act = collected.append
        server.register_action(action, act)
        for definition in workload.trigger_definitions(action):
            server.create_trigger(definition)
        return server, workload

    def concurrent_throughput(
        self,
        shard_counts: Sequence[int] = (1, 2, 4, 8),
        clients: int = 8,
        updates_per_client: int = 32,
        mode: ExecutionMode = ExecutionMode.GROUPED_AGG,
        *,
        action_latency: float = 0.0,
        max_batch: int = 32,
    ) -> list[ExperimentPoint]:
        """Aggregate serving throughput vs. shard count (spread Figure 17 load).

        For each shard count the same conflict-free client streams (leaf
        updates spread over every top element) are replayed by concurrent
        closed-loop clients against a freshly built server; the reported
        ``avg_ms`` is wall time per statement, so throughput comparisons read
        directly off the points.
        """
        points: list[ExperimentPoint] = []
        for shard_count in shard_counts:
            server, workload = self.build_server(
                self.base_parameters, int(shard_count), mode,
                action_latency=action_latency, max_batch=max_batch,
            )
            streams = workload.client_streams(clients, updates_per_client)
            with server:
                result = run_concurrent_clients(server, streams)
            if result.errors:  # pragma: no cover - surfaced for debugging
                raise result.errors[0]
            points.append(
                ExperimentPoint(
                    figure="concurrent_throughput",
                    parameter="shards",
                    value=int(shard_count),
                    mode=mode.value,
                    avg_ms=result.seconds / max(1, result.statements) * 1000.0,
                    updates=result.statements,
                    fired_per_update=result.activations / max(1, result.statements),
                )
            )
        return points

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


def _print_points(points: Sequence[ExperimentPoint]) -> None:
    for point in points:
        row = point.as_row()
        print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))


def main() -> None:  # pragma: no cover - CLI convenience
    """Run a scaled-down version of every experiment and print the series."""
    parameters = WorkloadParameters(leaf_tuples=8_000, fanout=32, num_triggers=200,
                                    satisfied_triggers=10, scale=1.0)
    harness = ExperimentHarness(parameters, updates=10)
    print("Figure 17 (number of triggers):")
    _print_points(harness.figure17_num_triggers((1, 10, 100, 1000)))
    print("Figure 18 (hierarchy depth):")
    _print_points(harness.figure18_depth((2, 3, 4)))
    print("Figure 22 (fanout):")
    _print_points(harness.figure22_fanout((16, 32, 64)))
    print("Figure 23 (data size):")
    _print_points(harness.figure23_data_size((4_000, 8_000, 16_000)))
    print("Figure 24 (satisfied triggers):")
    _print_points(harness.figure24_satisfied((1, 10, 20)))
    print("Batch throughput (set-oriented execute_batch vs per-statement):")
    _print_points(harness.batch_throughput((1, 5, 10)))
    print("Concurrent serving throughput (shards, 2 ms simulated delivery):")
    _print_points(harness.concurrent_throughput((1, 2, 4), clients=4,
                                                updates_per_client=8,
                                                action_latency=0.002))
    print("Compile time:")
    print(" ", harness.compile_time(20))


if __name__ == "__main__":  # pragma: no cover
    main()
