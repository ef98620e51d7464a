"""Library workloads: one caller in a closed loop on ``ActiveViewService.execute``.

The consumer is the registered action function: ``notify`` latency ends
when the action has been called for the last activation a statement
caused, ``ack`` latency when ``execute()`` returns.
"""

from __future__ import annotations

import gc
import itertools
import resource
from pathlib import Path
from typing import Iterator

from repro.core.service import ActiveViewService
from repro.workloads import HierarchyWorkload

from benchmarks.e2e import checks, replay
from benchmarks.e2e.gen import Op, Spec, open_stream
from benchmarks.e2e.measure import (
    Outcome,
    Spans,
    evaluation_metrics,
    median,
    now,
    percentile,
    rate,
    ratio,
    settle_heap,
    tail_percentile,
)

#: ``service.fired`` grows with every activation; the loop forgets it this often.
_CLEAR_EVERY = 256


class _Consumer:
    """The registered action: counts calls and stamps the first and last."""

    __slots__ = ("count", "first", "last")

    def __init__(self) -> None:
        self.count = 0
        self.first = 0.0
        self.last = 0.0

    def __call__(self, node) -> None:
        stamp = now()
        if not self.count:
            self.first = stamp
        self.count += 1
        self.last = stamp


def _setup(spec: Spec, seed: int, triggers: list[str]):
    """Build data, register the view, bulk-register the triggers."""
    workload = HierarchyWorkload(spec.parameters(seed))
    database = workload.build_database()
    service = ActiveViewService(database)
    service.register_view(workload.build_view())
    consumer = _Consumer()
    service.register_action("collect", consumer)
    started = now()
    service.register_triggers_bulk(triggers)
    return service, consumer, now() - started


def _apply(service: ActiveViewService, op: Op) -> None:
    if op.ddl is not None:
        service.drop_trigger(op.ddl[0])
        service.create_trigger(op.ddl[1])
    else:
        service.execute(op.statement)


class _Loop:
    """The closed loop; keeps what the checks and the metrics need."""

    def __init__(self, service: ActiveViewService, consumer: _Consumer, ops: Iterator[Op]):
        self.service = service
        self.consumer = consumer
        self.ops = ops
        self.statements: list = []
        self.attempted = 0
        self.miscounted = 0
        self.raised = 0
        self.expected = 0
        #: One firing per traced statement, kept for the isolated replays.
        self.captured: list = []

    def run(self, *, seconds: float = 0.0, count: int = 0, spans: Spans | None = None,
            commits: list | None = None) -> dict:
        """Run until ``seconds`` elapsed (or for exactly ``count`` operations)."""
        service, consumer = self.service, self.consumer
        ack, notify, ddl = [], [], []
        activations = 0
        busy = 0.0
        started = now()
        deadline = started + seconds
        for done in itertools.count(1):
            op = next(self.ops)
            self.attempted += 1
            consumer.count = 0
            if commits is not None:
                del commits[:]
            begin = now()
            try:
                _apply(service, op)
            except Exception:  # noqa: BLE001 - counted and reported; the run goes on
                self.raised += 1
                op = None
            end = now()
            busy += end - begin
            if op is None:
                pass
            elif op.ddl is not None:
                ddl.append((end - begin) * 1e6)
            else:
                self.statements.append(op.statement)
                self.expected += op.expected
                ack.append((end - begin) * 1e3)
                if consumer.count:
                    notify.append((consumer.last - begin) * 1e3)
                if consumer.count != op.expected:
                    self.miscounted += 1
                activations += consumer.count
                if spans is not None:
                    self._record(spans, self.attempted, begin, end, commits)
            if done % _CLEAR_EVERY == 0:
                service.clear_logs()
            if (count and done >= count) or (not count and end >= deadline):
                break
        wall = now() - started
        return {
            "ack": ack, "notify": notify, "ddl": ddl, "wall": wall, "busy": busy,
            "ops": done, "activations": activations,
        }

    def _record(self, spans: Spans, op_id: int, begin: float, end: float, commits) -> None:
        consumer = self.consumer
        spans.root(op_id, begin, end)
        commit = commits[0][0] if commits else begin
        spans.child(op_id, "relational.apply", begin, commit)
        if consumer.count:
            if len(self.captured) < replay.SAMPLE:
                self.captured.append(self.service.fired[-1])
            spans.child(op_id, "xqgm.eval", commit, consumer.first)
            spans.child(op_id, "core.activate", consumer.first, consumer.last)
            spans.child(op_id, "core.unwind", consumer.last, end)
        else:
            spans.child(op_id, "xqgm.eval", commit, end)


def _fired_by_statement(service: ActiveViewService, prefix: list[Op]) -> list[list[tuple]]:
    """Execute the warm-up prefix, returning each operation's firing triples."""
    observed = []
    for op in prefix:
        mark = len(service.fired)
        _apply(service, op)
        observed.append(checks.triples(service.fired[mark:]))
    return observed


def run(spec: Spec, seed: int, seconds: float, trace: bool, setups: int,
        scratch: Path) -> Outcome:
    """Same signature as ``serving.run``; a library run writes no files."""
    outcome = Outcome()
    triggers, ops = open_stream(spec, seed)

    setup_times = []
    for _ in range(setups):
        service = consumer = None
        gc.collect()
        started = now()
        service, consumer, register_s = _setup(spec, seed, triggers)
        setup_times.append(now() - started)

    prefix = list(itertools.islice(ops, spec.warmup))
    observed = _fired_by_statement(service, prefix)
    warm_miscounts = sum(
        1 for op, seen in zip(prefix, observed) if op.ddl is None and len(seen) != op.expected
    )
    service.clear_logs()
    settle_heap()
    loop = _Loop(service, consumer, ops)
    loop.statements = [op.statement for op in prefix if op.ddl is None]

    if not trace:
        result = loop.run(seconds=seconds)
        fraction = tail_percentile(len(result["notify"]))
        outcome.metrics.update({
            "setup_s": median(setup_times),
            "stmts_per_s": rate(result["ops"], result["wall"]),
            "notify_p50_ms": median(result["notify"]),
            "ack_p50_ms": median(result["ack"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        outcome.notes.append(
            f"closed loop, 1 caller: {result['ops']} operations in {result['wall']:.2f} s; "
            f"notify samples {len(result['notify'])}, ack samples {len(result['ack'])}; "
            f"notify p{int(fraction * 100)} {percentile(result['notify'], fraction):.3f} ms "
            f"(informational)"
        )
    else:
        _traced(spec, seconds, loop, outcome, register_s)

    outcome.attempted = spec.warmup + loop.attempted
    outcome.activations_expected = loop.expected + sum(op.expected for op in prefix)
    outcome.fail(loop.raised, "statements raised")
    outcome.fail(loop.miscounted + warm_miscounts, "statements with a wrong activation count")
    outcome.fail(
        checks.oracle_mismatches(
            spec, seed, triggers, prefix[:spec.oracle], observed[:spec.oracle]
        ),
        "statements differing from the oracle twin",
    )
    twin, batch_us = checks.twin_replay(spec, seed, loop.statements)
    if checks.table_digest(twin.snapshot()) != checks.table_digest(service.database.snapshot()):
        outcome.fail(1, "final table contents differ from the trigger-free twin")
    if trace:
        outcome.metrics["relational.batch_apply_us_per_stmt"] = batch_us
    return outcome


def _traced(spec: Spec, seconds: float, loop: _Loop, outcome: Outcome,
            register_s: float) -> None:
    service = loop.service
    count = max(20, int(spec.trace_rate * seconds))
    plain = loop.run(count=count // 2)

    spans = Spans()
    commits: list = []
    applied: list = []

    def on_commit(kind: str, payload) -> None:
        if kind == "apply":
            commits.append((now(), payload))
            applied.append(payload)

    before = service.evaluation_report()
    service.database.add_commit_listener(on_commit)
    try:
        traced = loop.run(count=count, spans=spans, commits=commits)
    finally:
        service.database.remove_commit_listener(on_commit)
    captured = loop.captured
    after = service.evaluation_report()

    pairs = [(fired.event, fired.old_node, fired.new_node) for fired in captured]
    nodes = [f.new_node if f.new_node is not None else f.old_node for f in captured]
    statements = len(traced["ack"])
    probe = replay.matching_probe(service.triggers, pairs)
    if traced["ddl"]:
        ddl_us = median(traced["ddl"])
    else:
        name = service.triggers[0].name
        definition = service.triggers[0]
        started = now()
        service.drop_trigger(name)
        service.create_trigger(definition)
        ddl_us = (now() - started) * 1e6
    condition = next((s.condition for s in service.triggers if s.condition), None)
    plans = service.plan_cache_hits + service.plan_cache_misses
    outcome.metrics.update({
        "notify_p95_ms": percentile(traced["notify"], tail_percentile(len(traced["notify"]))),
        "relational.apply_us": median(spans.durations_us("relational.apply")),
        "relational.rows_touched": sum(d.rowcount for deltas in applied for d in deltas),
        "xqgm.eval_us": max(
            0.0, median(spans.durations_us("xqgm.eval")) - probe["matching.probe_us"]
        ),
        **evaluation_metrics(before, after),
        **probe,
        "matching.ddl_us": ddl_us,
        "core.register_bulk_s": register_s,
        "core.plan_cache_hit_ratio": ratio(service.plan_cache_hits, plans),
        "core.activate_us": median(spans.durations_us("core.activate")),
        "core.activations_per_stmt": ratio(traced["activations"], statements),
        **replay.xmlmodel(nodes, condition),
        "loadgen.cpu_share": 1.0 - ratio(traced["busy"], traced["wall"]),
        "trace.overhead_ratio": ratio(traced["wall"] / traced["ops"],
                                      plain["wall"] / plain["ops"]) - 1.0,
        "trace.span_coverage": spans.coverage(),
    })
    outcome.notes.append(
        f"traced closed loop: {traced['ops']} operations ({statements} statements) after "
        f"{plain['ops']} untraced; {len(spans.rows)} spans"
    )
    outcome.spans = spans
