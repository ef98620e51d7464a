"""Serving workloads: ``serve_durable``, ``wire_stream``, ``web_stream``.

One producer and one subscriber (threads against the in-process
``DurableServer``; two connections from one asyncio loop against the child
process).  Every run is *warm-up* (untimed, also the oracle prefix), then
*saturate* — a closed loop keeping a fixed window of statements outstanding,
which gives ``stmts_per_s`` — then *paced* — an open loop at the workload's
fixed rate, every statement timed from when it was due, which gives the
latency metrics and the generator's lateness.  A statement is complete when
the writer has its result **and** the subscriber holds the last activation
it caused.
"""

from __future__ import annotations

import asyncio
import gc
import json
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core.language import parse_trigger
from repro.persist import DurableServer
from repro.persist.recovery import SNAPSHOT_FILE
from repro.serving.net import NetClient
from repro.serving.web import WebClient, WsClient
from repro.workloads import HierarchyWorkload

from benchmarks.e2e import checks, replay, serve
from benchmarks.e2e.gen import Op, Spec, open_stream
from benchmarks.e2e.measure import (
    Ledger,
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

#: Share of ``--seconds`` the saturate phase gets; the paced phase gets the rest.
SATURATE_SHARE = 0.5
#: A phase whose outstanding statements do not complete within this is stalled.
STALL_SECONDS = 30.0
#: Statements at the end of a traced durable run whose activations stay
#: unacknowledged, so that recovery has something to redeliver.
UNACKED_TAIL = 32
SUBSCRIPTION = "bench"
#: A paced phase whose generator needs more of a core than this is invalid,
#: not slow.  Lateness itself is reported (``loadgen.late_p95_ms``) and is
#: inside every latency, which is timed from the due time: with CPU to
#: spare, a late generator was waiting on the program — the interpreter it
#: shares with an in-process server, or the one keep-alive HTTP connection.
MAX_GENERATOR_CPU = 0.5


@dataclass
class Phase:
    """One load phase and what it measured."""

    name: str
    window: int
    seconds: float = 0.0
    count: int = 0
    rate: float = 0.0
    first: int = 0
    last: int = 0
    started: float = 0.0
    ended: float = 0.0
    late: list[float] = field(default_factory=list)
    generator_cpu: float = 0.0
    stalled: bool = False

    def over(self, sent: int, at: float) -> bool:
        if self.count:
            return sent >= self.count
        return at >= self.started + self.seconds

    @property
    def statements(self) -> int:
        return self.last - self.first

    @property
    def wall(self) -> float:
        return self.ended - self.started


class _Engine:
    """What both load engines share: the ledger and what the consumer keeps."""

    def __init__(self, ops: Iterator[Op]) -> None:
        self.ops = ops
        self.ledger = Ledger(on_complete=self._completed)
        self.statements: list = []
        #: While set, received activations are kept per causing statement.
        self.keep_by_statement: dict[int, list] | None = None
        #: Activations kept for the isolated replays of a traced run.
        self.sample: list = []
        self.sampling = False

    def _completed(self, index: int) -> None:
        raise NotImplementedError

    def _received(self, activation, at: float) -> int | None:
        owner = self.ledger.activation(
            tuple(activation.key), activation.shard, activation.sequence, at
        )
        if self.keep_by_statement is not None and owner is not None:
            self.keep_by_statement.setdefault(owner, []).append(activation)
        if self.sampling and len(self.sample) < replay.SAMPLE:
            self.sample.append(activation)
        return owner

    def _next(self, due: float | None) -> tuple[int, Op]:
        op = next(self.ops)
        sent = now()
        index = self.ledger.send(op.key, op.expected, sent if due is None else due, sent)
        self.statements.append(op.statement)
        return index, op


class _ThreadEngine(_Engine):
    """Producer thread = the caller of ``run``; one subscriber thread that acks."""

    def __init__(self, durable: DurableServer, subscriber, ops: Iterator[Op]) -> None:
        super().__init__(ops)
        self.durable = durable
        self.subscriber = subscriber
        #: Activations of statements from this index on are left unacknowledged.
        self.hold_from: float = float("inf")
        self._permits = threading.Semaphore(0)
        self._stop = threading.Event()
        self._consumer_cpu = 0.0
        self._consumer = threading.Thread(target=self._consume, name="subscriber")
        self._consumer.start()

    def _completed(self, index: int) -> None:
        self._permits.release()

    def _consume(self) -> None:
        subscriber = self.subscriber
        while not self._stop.is_set():
            try:
                activation = subscriber.get(timeout=0.05)
            except queue.Empty:
                continue
            owner = self._received(activation, now())
            if owner is None or owner < self.hold_from:
                subscriber.ack(activation)
            self._consumer_cpu = time.thread_time()

    def run(self, phase: Phase) -> Phase:
        ledger = self.ledger
        self._permits = threading.Semaphore(phase.window)
        phase.first = len(ledger.due)
        cpu = time.thread_time() + self._consumer_cpu
        phase.started = now()
        sent = 0
        while True:
            due = None
            if phase.rate:
                due = phase.started + sent / phase.rate
                if phase.over(sent, due):
                    break
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
            if not self._permits.acquire(timeout=STALL_SECONDS):
                phase.stalled = True
                break
            if not phase.rate and phase.over(sent, now()):
                self._permits.release()
                break
            index, op = self._next(due)
            if due is not None:
                phase.late.append((ledger.sent_at[index] - due) * 1e3)
            ticket = self.durable.submit(op.statement)
            ticket.add_done_callback(lambda done, index=index: self._acked(index, done))
            sent += 1
        for _ in range(phase.window):
            if phase.stalled or not self._permits.acquire(timeout=STALL_SECONDS):
                phase.stalled = True
                break
        phase.ended = now()
        phase.last = len(ledger.due)
        phase.generator_cpu = time.thread_time() + self._consumer_cpu - cpu
        return phase

    def _acked(self, index: int, ticket) -> None:
        stamp = now()
        try:
            ticket.result(0)
        except Exception:  # noqa: BLE001 - any failure of the statement is a failed op
            self.ledger.acked(index, stamp, ok=False)
        else:
            self.ledger.acked(index, stamp)

    def close(self) -> None:
        self._stop.set()
        self._consumer.join(timeout=10)


class _AsyncEngine(_Engine):
    """Producer and subscriber as two connections on one asyncio loop."""

    def __init__(self, spec: Spec, submit, subscription, ops: Iterator[Op]) -> None:
        super().__init__(ops)
        self._pipelined = spec.kind == "wire"
        self._submit = submit
        self.subscription = subscription
        self._permits = asyncio.Semaphore(0)
        self._tasks: set[asyncio.Task] = set()
        self._consumer = asyncio.ensure_future(self._consume())

    def _completed(self, index: int) -> None:
        self._permits.release()

    async def _consume(self) -> None:
        while True:
            activation = await self.subscription.get()
            if activation is None:
                return
            self._received(activation, now())

    async def _send(self, index: int, op: Op) -> None:
        try:
            await self._submit(op.statement)
        except Exception:  # noqa: BLE001 - refused, failed or disconnected: a failed op
            self.ledger.acked(index, now(), ok=False)
        else:
            self.ledger.acked(index, now())

    async def run(self, phase: Phase) -> Phase:
        ledger = self.ledger
        self._permits = asyncio.Semaphore(phase.window)
        phase.first = len(ledger.due)
        cpu = time.process_time()
        phase.started = now()
        sent = 0
        while True:
            due = None
            if phase.rate:
                due = phase.started + sent / phase.rate
                if phase.over(sent, due):
                    break
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
            try:
                await asyncio.wait_for(self._permits.acquire(), STALL_SECONDS)
            except asyncio.TimeoutError:
                phase.stalled = True
                break
            if not phase.rate and phase.over(sent, now()):
                self._permits.release()
                break
            index, op = self._next(due)
            if due is not None:
                phase.late.append((ledger.sent_at[index] - due) * 1e3)
            if self._pipelined:
                task = asyncio.ensure_future(self._send(index, op))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            else:
                await self._send(index, op)
            sent += 1
        try:
            for _ in range(phase.window):
                if phase.stalled:
                    break
                await asyncio.wait_for(self._permits.acquire(), STALL_SECONDS)
        except asyncio.TimeoutError:
            phase.stalled = True
        phase.ended = now()
        phase.last = len(ledger.due)
        phase.generator_cpu = time.process_time() - cpu
        return phase

    async def close(self) -> None:
        self._consumer.cancel()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(self._consumer, *self._tasks, return_exceptions=True)


# ------------------------------------------------------------------ the run plan


def _plan(spec: Spec, seconds: float, trace: bool) -> list[Phase]:
    paced_window = max(1, spec.tops // 2) if spec.window > 1 else 1
    phases = [Phase("warmup", spec.window, count=spec.warmup)]
    if trace:
        count = max(2 * spec.window, int(spec.trace_rate * seconds))
        phases += [
            Phase("plain", spec.window, count=count // 2),
            Phase("saturate", spec.window, count=count),
            Phase("paced", paced_window, count=count, rate=spec.paced_rate),
        ]
    else:
        phases += [
            Phase("saturate", spec.window, seconds=seconds * SATURATE_SHARE),
            Phase("paced", paced_window, seconds=seconds * (1 - SATURATE_SHARE),
                  rate=spec.paced_rate),
        ]
    return phases


def _end_to_end(engine: _Engine, phases: dict[str, Phase], outcome: Outcome) -> None:
    saturate, paced = phases["saturate"], phases["paced"]
    ack, notify = engine.ledger.samples(paced.first, paced.last)
    fraction = tail_percentile(len(notify))
    outcome.metrics.update({
        "stmts_per_s": rate(saturate.statements, saturate.wall),
        "notify_p50_ms": median(notify),
        "notify_p95_ms": percentile(notify, fraction),
        "ack_p50_ms": median(ack),
    })
    late = percentile(paced.late, 0.95)
    share = ratio(paced.generator_cpu, paced.wall)
    outcome.metrics.update({"loadgen.late_p95_ms": late, "loadgen.cpu_share": share})
    outcome.notes.append(
        f"saturate: closed loop, window {saturate.window}: {saturate.statements} statements "
        f"in {saturate.wall:.2f} s; paced: open loop at {paced.rate:.0f}/s: "
        f"{paced.statements} statements, notify samples {len(notify)}, ack samples "
        f"{len(ack)}, notify p{int(fraction * 100)} {percentile(notify, fraction):.3f} ms "
        f"(informational), generator late p95 {late:.3f} ms, generator cpu {share:.2f} "
        f"of a core"
    )
    if share > MAX_GENERATOR_CPU:
        outcome.problems.append(
            f"invalid: the generator used {share:.2f} of a core in the paced phase "
            f"(limit {MAX_GENERATOR_CPU}); its latencies measure the generator"
        )


def _verdict(spec: Spec, seed: int, engine: _Engine, phases: list[Phase],
             triggers: list[str], observed: dict[int, list], tables: str,
             outcome: Outcome) -> float:
    """Correctness of the whole run; returns the twin's batch-apply cost."""
    ledger = engine.ledger
    outcome.attempted = len(ledger.due)
    outcome.activations_expected = sum(ledger.expected)
    outcome.fail(ledger.errors, "statements refused or failed")
    outcome.fail(ledger.unfinished(), "statements timed out")
    outcome.fail(ledger.missing(), "activations missing")
    outcome.fail(ledger.violations, "activations duplicated or out of per-shard order")
    for phase in phases:
        if phase.stalled:
            outcome.problems.append(f"{phase.name} phase stalled")
    warm = phases[0]
    prefix = [
        Op(engine.statements[i], ledger.key[i], ledger.expected[i])
        for i in range(warm.first, min(warm.last, spec.oracle))
    ]
    seen = [checks.triples(observed.get(i, ())) for i in range(len(prefix))]
    outcome.fail(
        checks.oracle_mismatches(spec, seed, triggers, prefix, seen),
        "statements differing from the oracle twin",
    )
    twin, batch_us = checks.twin_replay(spec, seed, engine.statements)
    if checks.table_digest(twin.snapshot()) != tables:
        outcome.fail(1, "final table contents differ from the trigger-free twin")
    return batch_us


# ------------------------------------------------------------------ tracing


def _spans(engine: _Engine, phases: list[Phase], hooks: dict, kind: str) -> Spans:
    """Cut each statement's root span at the program's public-hook timestamps."""
    queue_name, deliver_name = {
        "durable": ("serving.queue", "serving.deliver"),
        "wire": ("serving.net.request", "serving.net.deliver"),
        "web": ("serving.web.request", "serving.web.deliver"),
    }[kind]
    commits: dict[int, list[float]] = {}
    for stamp, keys in hooks["commits"]:
        for key in keys:
            commits.setdefault(key, []).append(stamp)
    produced: dict[int, list[float]] = {}
    for stamp, key in hooks["activations"]:
        produced.setdefault(key, []).append(stamp)
    taken_commit: dict[int, int] = {}
    taken_act: dict[int, int] = {}
    ledger = engine.ledger
    spans = Spans()
    for phase in phases:
        for index in range(phase.first, phase.last):
            key = ledger.key[index][0]
            count = ledger.expected[index]
            at = taken_commit.get(key, 0)
            act = taken_act.get(key, 0)
            taken_commit[key] = at + 1
            taken_act[key] = act + count
            stamps = produced.get(key, ())[act:act + count]
            complete = at < len(commits.get(key, ())) and len(stamps) == count
            if not complete or not ledger.notify_at[index]:
                continue
            due, sent, end = ledger.due[index], ledger.sent_at[index], ledger.notify_at[index]
            commit = commits[key][at]
            spans.root(index, due, end)
            if sent > due:
                spans.child(index, "loadgen.wait", due, sent)
            spans.child(index, queue_name, sent, commit)
            spans.child(index, "xqgm.eval", commit, stamps[0])
            spans.child(index, "core.activate", stamps[0], stamps[-1])
            spans.child(index, deliver_name, stamps[-1], end)
    return spans


def _layers(spec: Spec, engine: _Engine, phases: dict[str, Phase], before: dict, after: dict,
            outcome: Outcome) -> None:
    """Per-layer metrics every serving workload shares (traced run)."""
    ledger = engine.ledger
    plain, saturate, paced = phases["plain"], phases["saturate"], phases["paced"]
    traced = [saturate, paced]
    spans = _spans(engine, traced, after["hooks"], spec.kind)
    statements = saturate.statements + paced.statements
    shards = [
        {key: new[key] - old[key] for key in new}
        for old, new in zip(before["shards"], after["shards"])
    ]
    batches = sum(shard["batches"] for shard in shards)
    done = [
        (ledger.ack_at[i] - ledger.sent_at[i]) * 1e6
        for i in range(paced.first, paced.last) if ledger.ack_at[i]
    ]
    delivery = [
        (ledger.notify_at[i] - ledger.ack_at[i]) * 1e6
        for i in range(paced.first, paced.last) if ledger.ack_at[i] and ledger.notify_at[i]
    ]
    nodes = [a.new_node for a in engine.sample if a.new_node is not None]
    pairs = [(a.event, a.old_node, a.new_node) for a in engine.sample]
    # One distinct pair per statement reaches the matcher; the sample holds
    # one activation per trigger, so keep every ``expected``-th.
    per_statement = max(1, ledger.expected[saturate.first])
    hits, misses = after["plan_cache"]
    probe = replay.matching_probe(after["specs"], pairs[::per_statement])
    eval_us = median(spans.durations_us("xqgm.eval"))
    outcome.metrics.update({
        "relational.rows_touched": after["hooks"]["rows_touched"],
        "xqgm.eval_us": max(0.0, eval_us - probe["matching.probe_us"]),
        **evaluation_metrics(before["evaluation"], after["evaluation"]),
        **probe,
        "core.register_bulk_s": after["register_bulk_s"],
        "core.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "core.activate_us": median(spans.durations_us("core.activate")),
        "core.activations_per_stmt": ratio(
            sum(ledger.expected[saturate.first:paced.last]) - ledger.missing(), statements
        ),
        **replay.xmlmodel(nodes[::per_statement], after["specs"][0].condition),
        "serving.submit_to_done_us": median(done),
        "serving.done_to_delivery_us": median(delivery),
        "serving.mean_batch": ratio(sum(shard["statements"] for shard in shards), batches),
        "serving.queue_depth_p95": percentile(after["hooks"]["queue_depths"], 0.95),
        "serving.errors": sum(shard["errors"] for shard in shards),
        "trace.overhead_ratio": ratio(
            saturate.wall / saturate.statements, plain.wall / plain.statements
        ) - 1.0,
        "trace.span_coverage": spans.coverage(),
    })
    outcome.notes.append(
        f"traced: {saturate.statements} saturate + {paced.statements} paced statements after "
        f"{plain.statements} untraced; {len(spans.rows)} spans"
    )
    outcome.spans = spans


# ------------------------------------------------------------------ serve_durable


def _open_durable(directory: Path, workload: HierarchyWorkload) -> DurableServer:
    return DurableServer(
        directory,
        shard_count=serve.SHARDS,
        key_fn=workload.routing_key_fn(),
        views=[workload.build_view()],
        actions={"collect": lambda node: None},
        max_batch=serve.MAX_BATCH,
        sync="flush",
    )


def _setup_durable(spec: Spec, seed: int, triggers: list[str], directory: Path):
    """Build data into a fresh durable directory, register, subscribe, start."""
    workload = HierarchyWorkload(spec.parameters(seed))
    reference = workload.build_database()
    durable = _open_durable(directory, workload)
    sharded = durable.sharded
    contents = reference.snapshot()
    for level in range(spec.depth):
        table = workload.level_table(level)
        sharded.create_table(reference.schema(table))
        if level:
            sharded.create_index(table, ["parent_id"])
    for level in range(spec.depth):
        table = workload.level_table(level)
        sharded.load_rows(table, contents[table])
    durable.ensure_view(workload.build_view())
    started = now()
    durable.server.register_triggers_bulk(triggers)
    register_s = now() - started
    subscriber = durable.subscribe(SUBSCRIPTION, capacity=serve.SEND_BUFFER)
    durable.start()
    return workload, durable, subscriber, register_s


def _log_bytes(durable: DurableServer) -> dict[str, int]:
    return {
        "wal_records": sum(wal.appended for wal in durable.wals),
        "wal_bytes": sum(wal.byte_size for wal in durable.wals),
        "outbox_bytes": durable.outbox.byte_size,
        "cursor_bytes": durable.cursors.byte_size,
    }


def _durable_report(durable: DurableServer, hooks, register_s: float) -> dict:
    durable.drain()
    report = serve.shard_report(durable.server)
    report["register_bulk_s"] = register_s
    report["logs"] = _log_bytes(durable)
    if hooks is not None:
        report["hooks"] = hooks.dump()
        report["hooks"]["applied"] = list(hooks.applied)
        report["specs"] = durable.server.triggers
    return report


def _recover(directory: Path, workload: HierarchyWorkload, records: int,
             expected_backlog: int, outcome: Outcome) -> None:
    """Reopen the killed server's directory; time redelivery, then a snapshot.

    ``records`` is what the killed server appended to its WALs, outbox and
    cursor log — what recovery has to read back.
    """
    started = now()
    reopened = _open_durable(directory, workload)
    subscriber = reopened.subscribe(SUBSCRIPTION, capacity=max(1024, 2 * expected_backlog))
    try:
        subscriber.get(timeout=STALL_SECONDS)
        recovery_s = now() - started
    except queue.Empty:
        recovery_s = now() - started
        outcome.fail(1, "no activation redelivered after recovery")
    redelivered = reopened.redelivered.get(SUBSCRIPTION, 0)
    if redelivered != expected_backlog:
        outcome.fail(1, f"redelivered {redelivered} activations, expected {expected_backlog}")
    try:
        started = now()
        reopened.snapshot()
        snapshot_s = now() - started
        snapshot_bytes = sum(
            (directory / f"shard{index}" / SNAPSHOT_FILE).stat().st_size
            for index in range(serve.SHARDS)
        )
    finally:
        reopened.close()
    outcome.metrics.update({
        "persist.recovery_s": recovery_s,
        "persist.replay_records_per_s": rate(records, recovery_s),
        "persist.snapshot_s": snapshot_s,
        "persist.snapshot_bytes": snapshot_bytes,
    })


def _run_durable(spec: Spec, seed: int, seconds: float, trace: bool, setups: int,
                 scratch: Path, outcome: Outcome) -> None:
    triggers, ops = open_stream(spec, seed)
    directories: list[Path] = []
    setup_times = []
    durable = engine = hooks = None
    try:
        for _ in range(setups):
            if durable is not None:
                durable.close()
                durable = None
            gc.collect()
            directory = Path(tempfile.mkdtemp(prefix="durable-", dir=scratch))
            directories.append(directory)
            started = now()
            workload, durable, subscriber, register_s = _setup_durable(
                spec, seed, triggers, directory
            )
            setup_times.append(now() - started)
        outcome.metrics["setup_s"] = median(setup_times)

        engine = _ThreadEngine(durable, subscriber, ops)
        phases = _plan(spec, seconds, trace)
        by_name = {phase.name: phase for phase in phases}
        observed: dict[int, list] = {}
        engine.keep_by_statement = observed
        engine.run(phases[0])
        engine.keep_by_statement = None
        settle_heap()

        if not trace:
            engine.run(by_name["saturate"])
            settle_heap()
            engine.run(by_name["paced"])
            _end_to_end(engine, by_name, outcome)
            outcome.metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            report = _durable_report(durable, None, register_s)
        else:
            engine.run(by_name["plain"])
            hooks = serve.ServerHooks(durable.server)
            hooks.start_sampler()
            engine.sampling = True
            before = _durable_report(durable, hooks, register_s)
            hooks.reset()
            engine.run(by_name["saturate"])
            paced = by_name["paced"]
            held = min(UNACKED_TAIL, paced.count // 2)
            engine.hold_from = len(engine.ledger.due) + paced.count - held
            engine.run(paced)
            report = _durable_report(durable, hooks, register_s)
            _end_to_end(engine, by_name, outcome)
            _layers(spec, engine, by_name, before, report, outcome)
            statements = by_name["saturate"].statements + paced.statements
            logs = {key: report["logs"][key] - before["logs"][key] for key in report["logs"]}
            written = logs["wal_bytes"] + logs["outbox_bytes"] + logs["cursor_bytes"]
            outcome.metrics.update({
                **{f"persist.{key}": value for key, value in logs.items()},
                "persist.durable_bytes_per_stmt": ratio(written, statements),
                **replay.persist(report["hooks"]["applied"], "flush", scratch),
            })

        batch_us = _verdict(spec, seed, engine, phases, triggers, observed,
                            report["tables"], outcome)
        if trace:
            outcome.metrics["relational.batch_apply_us_per_stmt"] = batch_us
            # Kill: the workers stop, nothing is snapshotted or closed.
            engine.close()
            hooks.close()
            hooks = None
            durable.stop(drain=True)
            records = report["logs"]["wal_records"] + durable.outbox.appended \
                + durable.cursors.appended
            backlog = sum(
                engine.ledger.expected[i]
                for i in range(int(engine.hold_from), len(engine.ledger.due))
            )
            _recover(directories[-1], workload, records, backlog, outcome)
    finally:
        if engine is not None:
            engine.close()
        if hooks is not None:
            hooks.close()
        if durable is not None:
            durable.close()
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)


# ------------------------------------------------------------------ wire_stream / web_stream


class _Child:
    """The server process: ``serve.py``, spoken to over its stdin/stdout."""

    def __init__(self, spec: Spec, seed: int, trace: bool) -> None:
        request = {"workload": spec.name, "seed": seed, "smoke": spec.reduced, "trace": trace}
        self.process = subprocess.Popen(
            [sys.executable, str(Path(serve.__file__).resolve()), json.dumps(request)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.process.stdout.readline()
            host, port = line.split()
            self.address = (host, int(port))
        except ValueError:
            self.stop()
            raise RuntimeError(f"server child did not start (said {line!r})") from None

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child died answering {command!r}")
        return json.loads(line)

    def stop(self) -> None:
        """Ask the child to exit, wait for it, and make sure it is gone."""
        process = self.process
        try:
            if process.poll() is None:
                process.stdin.write("stop\n")
                process.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        for pipe in (process.stdin, process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


async def _connect(spec: Spec, address: tuple[str, int]):
    """Two connections: ``(submit coroutine, subscription, clients to close)``."""
    host, port = address
    if spec.kind == "web":
        producer = await WebClient.connect(host, port)
        listener = await WsClient.connect(host, port)
        subscription = await listener.subscribe()
        return producer.submit, subscription, (producer, listener)
    producer = await NetClient.connect(host, port)
    listener = await NetClient.connect(host, port)
    subscription = await listener.subscribe()
    return producer.execute, subscription, (producer, listener)


async def _round_trips(spec: Spec, clients) -> dict[str, float]:
    """Idle request/reply round trips of the producer connection."""
    producer = clients[0]
    samples = []
    for _ in range(50):
        started = now()
        if spec.kind == "web":
            await producer.stats()
        else:
            await producer.ping()
        samples.append((now() - started) * 1e6)
    name = "serving.web.rest_rtt_us" if spec.kind == "web" else "serving.net.ping_rtt_us"
    return {name: median(samples)}


def _front_metrics(spec: Spec, before: dict, after: dict) -> dict[str, float]:
    """Front-end counters as differences across the traced phases."""
    def grown(key: str, old: dict = before, new: dict = after) -> float:
        return new[key] - old[key]

    if spec.kind == "web":
        return {"serving.web.frames_sent": grown("ws_frames_sent")}
    loops = before["per_loop"][0], after["per_loop"][0]
    return {
        "serving.net.frames_sent": grown("frames_sent"),
        "serving.net.activation_batches_sent": grown("activation_batches_sent"),
        "serving.net.shared_encode_hits": grown("shared_encode_hits"),
        "serving.net.subscriptions_paused": after["subscriptions_paused"],
        "serving.net.wakeups_per_post": ratio(
            grown("wake_wakeups", *loops), grown("wake_posts", *loops)
        ),
    }


async def _run_remote(spec: Spec, seed: int, seconds: float, trace: bool, setups: int,
                      outcome: Outcome) -> None:
    triggers, ops = open_stream(spec, seed)
    child = engine = None
    clients: tuple = ()
    setup_times = []
    try:
        for _ in range(setups):
            for client in clients:
                await client.close()
            if child is not None:
                child.stop()
            started = now()
            child = _Child(spec, seed, trace)
            submit, subscription, clients = await _connect(spec, child.address)
            setup_times.append(now() - started)
        outcome.metrics["setup_s"] = median(setup_times)

        engine = _AsyncEngine(spec, submit, subscription, ops)
        phases = _plan(spec, seconds, trace)
        by_name = {phase.name: phase for phase in phases}
        observed: dict[int, list] = {}
        engine.keep_by_statement = observed
        await engine.run(phases[0])
        engine.keep_by_statement = None
        child.ask("settle")
        settle_heap()

        if not trace:
            await engine.run(by_name["saturate"])
            child.ask("settle")
            settle_heap()
            await engine.run(by_name["paced"])
            report = child.ask("report")
            _end_to_end(engine, by_name, outcome)
            outcome.metrics["peak_rss_mb"] = report["ru_maxrss_mb"]
        else:
            await engine.run(by_name["plain"])
            before = child.ask("reset")
            engine.sampling = True
            await engine.run(by_name["saturate"])
            await engine.run(by_name["paced"])
            report = child.ask("report")
            report["specs"] = [parse_trigger(definition) for definition in triggers]
            _end_to_end(engine, by_name, outcome)
            _layers(spec, engine, by_name, before, report, outcome)
            outcome.metrics.update(_front_metrics(spec, before["front"], report["front"]))
            outcome.metrics.update(await _round_trips(spec, clients))
            if spec.kind == "web":
                outcome.metrics.update(replay.web(engine.sample))
            else:
                outcome.metrics.update(replay.wire(engine.sample))
            if report["front"]["subscriptions_paused"]:
                outcome.fail(report["front"]["subscriptions_paused"], "subscriptions paused")
        batch_us = _verdict(spec, seed, engine, phases, triggers, observed,
                            report["tables"], outcome)
        if trace:
            outcome.metrics["relational.batch_apply_us_per_stmt"] = batch_us
    finally:
        if engine is not None:
            await engine.close()
        for client in clients:
            try:
                await client.close()
            except Exception:  # noqa: BLE001 - best effort on the way out
                pass
        if child is not None:
            child.stop()


def run(spec: Spec, seed: int, seconds: float, trace: bool, setups: int,
        scratch: Path) -> Outcome:
    if spec.depth != 2:
        raise ValueError("serving hooks read a leaf's parent_id as its top element")
    outcome = Outcome()
    if spec.kind == "durable":
        _run_durable(spec, seed, seconds, trace, setups, scratch, outcome)
    else:
        asyncio.run(_run_remote(spec, seed, seconds, trace, setups, outcome))
    return outcome
