"""ActiveViewServer — the concurrent sharded serving layer.

The paper's pipeline makes one update cheap (grouped, translated triggers);
the batch engine (PR 1) makes one *stream* cheap (set-at-a-time execution).
This module adds throughput **across** streams: an
:class:`ActiveViewServer` accepts DML from many concurrent clients, routes
each statement to the shard that owns its rows, and drives every shard with
a dedicated single-writer worker loop that **micro-batches under load** —
whatever has accumulated in the shard's queue (up to ``max_batch``) is
executed as one set-oriented batch through
:meth:`~repro.core.service.ActiveViewService.execute_batch`, so queueing
pressure automatically turns into per-statement cost amortization.

Architecture::

    clients ──submit()──► per-shard bounded queues ──► shard worker threads
                                                          │  execute_batch
                                                          ▼
                                       ActiveViewService (one per shard,
                                       shared thread-safe PlanCache)
                                                          │  activations
                                                          ▼
                              bounded Subscriber queues (at-least-once,
                              per-node-ordered — see repro.serving.subscribers)

Concurrency model, in one paragraph: all mutation of a shard's
:class:`~repro.relational.database.Database` happens on that shard's worker
thread (single-writer), so no table-level locking is needed beyond the
database's own serialization lock; the only cross-thread structures are the
submission queues, the shared :class:`~repro.core.service.PlanCache`
(trigger *compilation* only, never the hot path), and the subscriber queues.
Statements of one client that touch one node are executed and delivered in
submission order because a node's key always routes to the same shard.

Correctness is pinned by an equivalence property
(``tests/serving/test_concurrent_equivalence.py``): for conflict-free client
streams on a view-closed sharding, the *set* of activations the server
delivers equals the set a single sequential service produces for the same
statements.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.service import ActiveViewService, ExecutionMode, FiredTrigger, PlanCache
from repro.core.trigger import TriggerSpec
from repro.matching.predicates import MatchPlanCache
from repro.errors import ServerStoppedError, ServingError
from repro.relational.database import Database
from repro.relational.dml import Statement, StatementResult
from repro.relational.sharded import ShardedDatabase
from repro.serving.subscribers import Activation, Subscriber
from repro.xqgm.views import ViewDefinition

__all__ = ["ActiveViewServer", "Ticket", "ShardStats"]

#: Queue sentinel asking a shard worker to exit.
_STOP = object()

#: Entries a serving shard keeps in each of its history lists (its
#: service's ``fired`` / ``action_calls``, its database's ``statement_log``).
#: The lists exist for inspection (a batch's firings travel on its result,
#: activations go to subscribers), so a worker forgets everything older
#: after every micro-batch and a server's memory does not grow with the
#: statements it has served.
HISTORY_WINDOW = 1024


class Ticket:
    """Completion handle for one submitted statement.

    A broadcast statement (predicate-only WHERE, no key set) fans out to
    every shard; its ticket completes when *all* shards have executed it and
    :meth:`result` returns the list of per-shard results.  A routed
    statement's ticket returns the owning shard's single
    :class:`~repro.relational.dml.StatementResult`.
    """

    def __init__(self, parts: int = 1) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._remaining = parts
        self._parts = parts
        self._results: list[StatementResult] = []
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["Ticket"], None]] = []

    def _resolve(self, result: StatementResult) -> None:
        with self._lock:
            self._results.append(result)
            self._remaining -= 1
            done = self._remaining <= 0
            if done:
                self._event.set()
                callbacks, self._callbacks = self._callbacks, []
        if done:
            for callback in callbacks:
                callback(self)

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._error is None:
                self._error = error
            self._remaining -= 1
            done = self._remaining <= 0
            if done:
                self._event.set()
                callbacks, self._callbacks = self._callbacks, []
        if done:
            for callback in callbacks:
                callback(self)

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Invoke ``callback(ticket)`` once every part has finished.

        Runs on the resolving shard worker's thread (immediately on the
        caller's when already done), so callbacks must be cheap and
        non-blocking — the network front end uses one to hand completion
        back to its event loop without parking a thread per statement.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    @property
    def done(self) -> bool:
        """Whether every part of the statement has finished (or failed)."""
        return self._event.is_set()

    def result(
        self, timeout: float | None = None
    ) -> StatementResult | list[StatementResult]:
        """Block for completion; re-raise the execution error if one occurred."""
        if not self._event.wait(timeout):
            raise TimeoutError("statement still pending after timeout")
        if self._error is not None:
            raise self._error
        return self._results[0] if self._parts == 1 else list(self._results)


@dataclass
class _Submission:
    statement: Statement
    ticket: Ticket


@dataclass
class ShardStats:
    """Per-shard serving counters (read them after :meth:`ActiveViewServer.drain`)."""

    submitted: int = 0
    statements: int = 0
    batches: int = 0
    max_batch: int = 0
    errors: int = 0

    @property
    def mean_batch(self) -> float:
        """Average micro-batch size observed so far."""
        return self.statements / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, int]:
        """Plain-scalar form (wire-encodable for the ``stats`` reply)."""
        return {
            "submitted": self.submitted,
            "statements": self.statements,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "errors": self.errors,
        }


class ActiveViewServer:
    """Concurrent sharded front end over per-shard :class:`ActiveViewService`\\ s.

    Parameters
    ----------
    database:
        A :class:`~repro.relational.sharded.ShardedDatabase` (or a plain
        :class:`~repro.relational.database.Database`, served as one shard).
    mode:
        Execution mode for every shard service (default GROUPED_AGG).
    max_batch:
        Micro-batch cap: a shard worker drains at most this many queued
        statements into one ``execute_batch`` call.  Bounds both the latency
        of the first statement in a batch and the blast radius of a failing
        statement (a failure fails its whole micro-batch's tickets).
    queue_capacity:
        Per-shard submission-queue bound; :meth:`submit` blocks when the
        owning shard's queue is full (producer backpressure) and
        :meth:`try_submit` returns ``None`` instead.
    service_options:
        Extra keyword arguments forwarded to every per-shard
        :class:`~repro.core.service.ActiveViewService` — e.g.
        ``{"use_columnar": True}`` switches every shard's trigger firing to
        the batch-oriented columnar engine (:mod:`repro.xqgm.columnar`); its
        ``columnar_*`` counters then aggregate across shards in
        :meth:`evaluation_report` like every other counter.

    Views, actions and triggers registered through the server are installed
    on every shard service; trigger compilation cost is shared through one
    thread-safe :class:`~repro.core.service.PlanCache`, so an N-shard server
    derives each distinct plan — including its lowered physical form
    (:mod:`repro.xqgm.physical`) — once, not N times.  The view-closure
    contract makes that sound: every shard exposes the same catalog, and a
    compiled plan references tables by name only.  What is *not* shared is
    the per-service result cache (cached subplan rows are one shard's data);
    see :meth:`evaluation_report`.
    """

    def __init__(
        self,
        database: ShardedDatabase | Database,
        mode: ExecutionMode = ExecutionMode.GROUPED_AGG,
        *,
        max_batch: int = 32,
        queue_capacity: int = 1024,
        service_options: dict[str, Any] | None = None,
    ) -> None:
        if isinstance(database, Database):
            database = ShardedDatabase.from_databases([database], name=database.name)
        if max_batch < 1:
            raise ServingError("max_batch must be at least 1")
        if queue_capacity < 1:
            raise ServingError("queue_capacity must be at least 1")
        self.sharded = database
        self.max_batch = max_batch
        self.plan_cache = PlanCache()
        # Match-plan analyses are immutable and catalog-independent, so they
        # are shared across shard services exactly like compiled plans.
        self.match_plan_cache = MatchPlanCache()
        self.services: list[ActiveViewService] = [
            ActiveViewService(
                shard,
                mode=mode,
                plan_cache=self.plan_cache,
                match_plan_cache=self.match_plan_cache,
                **(service_options or {}),
            )
            for shard in database.shards
        ]
        self._queues: list[queue.Queue] = [queue.Queue() for _ in database.shards]
        # Per shard, the free slots of its submission queue.  The bound is
        # kept here, not in the Queue, so that an enqueue can take the slots
        # of every shard it needs — or none of them — without blocking.
        self._slots = [threading.Semaphore(queue_capacity) for _ in database.shards]
        self.stats: list[ShardStats] = [ShardStats() for _ in database.shards]
        self._sequences: list[int] = [0] * database.shard_count
        # Per shard, the bundle: what its worker's current execute_batch call
        # has fired so far.  Only that worker touches it.
        self._bundles: list[list[Activation]] = [[] for _ in database.shards]
        # Activation hooks run on the producing shard's worker thread BEFORE
        # subscriber fan-out — the durable outbox appends here, so a delivery
        # can never precede its durable record (see repro.persist.durable).
        self._activation_hooks: list[Callable[[Sequence[Activation]], None]] = []
        self._subscribers: list[Subscriber] = []
        self._subscribers_lock = threading.Lock()
        self._anonymous = 0  # anonymous subscribers named so far
        self._threads: list[threading.Thread] = []
        self._running = False
        self._aborting = threading.Event()
        # submit() runs on arbitrary client threads; the submitted counters
        # are the one ShardStats field not confined to a worker thread.
        self._submit_lock = threading.Lock()
        for index, service in enumerate(self.services):
            service.add_activation_listener(self._make_listener(index))

    # ------------------------------------------------------------------ registration

    @property
    def shard_count(self) -> int:
        """Number of shards (== worker threads when running)."""
        return self.sharded.shard_count

    def register_view(self, view: ViewDefinition) -> None:
        """Register an XML view on every shard service."""
        for service in self.services:
            service.register_view(view)

    def register_action(self, name: str, function: Callable[..., Any]) -> None:
        """Register an external action function on every shard service.

        The function is invoked synchronously on the shard worker thread that
        fired the trigger, so actions of different shards overlap — blocking
        work in an action (a notification RPC, say) stalls only its own
        shard.  The function must therefore be thread-safe.
        """
        for service in self.services:
            service.register_action(name, function)

    def create_trigger(self, definition: str | TriggerSpec) -> TriggerSpec:
        """Create an XML trigger on every shard service (shared plan cache)."""
        spec: TriggerSpec | None = None
        for service in self.services:
            created = service.create_trigger(
                definition if spec is None else spec
            )
            spec = spec or created
        assert spec is not None
        return spec

    def register_triggers_bulk(
        self, definitions: Iterable[str | TriggerSpec]
    ) -> list[TriggerSpec]:
        """Create a batch of XML triggers on every shard service.

        The first shard parses each definition; the remaining shards reuse
        the parsed specs (and their cached expression analyses), and every
        shard builds its matching indexes once per touched group instead of
        once per trigger — see
        :meth:`~repro.core.service.ActiveViewService.register_triggers_bulk`.
        """
        materialized = list(definitions)
        specs: list[TriggerSpec] | None = None
        for service in self.services:
            created = service.register_triggers_bulk(
                materialized if specs is None else specs
            )
            specs = specs or created
        return specs if specs is not None else []

    def drop_trigger(self, name: str) -> None:
        """Drop an XML trigger from every shard service."""
        for service in self.services:
            service.drop_trigger(name)

    def drop_view(self, name: str) -> None:
        """Drop a view (and its triggers) from every shard service.

        The shared plan cache evicts the view's compiled plans once; see
        :meth:`~repro.core.service.ActiveViewService.drop_view`.
        """
        for service in self.services:
            service.drop_view(name)

    @property
    def triggers(self) -> list[TriggerSpec]:
        """The registered XML trigger specs (identical on every shard)."""
        return self.services[0].triggers

    # ------------------------------------------------------------------ subscriptions

    def subscribe(self, name: str | None = None, capacity: int = 256) -> Subscriber:
        """Attach a bounded activation subscriber (see :mod:`repro.serving.subscribers`)."""
        with self._subscribers_lock:
            # One critical section and a counter that never goes back:
            # anonymous names never collide, even after an unsubscribe.
            if name is None:
                self._anonymous += 1
                name = f"subscriber{self._anonymous}"
            subscriber = Subscriber(name, capacity)
            self._subscribers.append(subscriber)
            return subscriber

    def attach_subscriber(self, subscriber: Subscriber) -> Subscriber:
        """Attach an already-built subscriber to live delivery.

        Exists so a caller can pre-fill the subscriber's queue *before* live
        fan-out can interleave — the durable serving layer enqueues a
        recovered backlog first, preserving per-shard order across the
        attach (see :meth:`repro.persist.DurableServer.subscribe`).
        """
        with self._subscribers_lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Close a subscriber and detach it from delivery."""
        subscriber.close()
        with self._subscribers_lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def add_activation_hook(self, hook: Callable[[Sequence[Activation]], None]) -> None:
        """Register a hook invoked with every bundle before fan-out.

        A bundle is every :class:`Activation` one shard worker produced in
        one micro-batch, in sequence order (never empty).  Hooks run on that
        worker's thread, after the batch's actions but before any subscriber
        receives any of it and before any of its tickets resolves.  The
        persistence layer appends the bundle to a durable outbox here, making
        accepted-but-undelivered activations recoverable after a crash.

        A hook that raises drops the bundle: no subscriber receives it, the
        micro-batch's tickets carry the hook's error (an action's error, if
        one came first, chained behind it) and the bundle's sequence numbers
        stay consumed, so subscribers see a gap.
        """
        self._activation_hooks.append(hook)

    def remove_activation_hook(self, hook: Callable[[Sequence[Activation]], None]) -> None:
        """Remove a previously registered activation hook (idempotent)."""
        try:
            self._activation_hooks.remove(hook)
        except ValueError:
            pass

    def seed_sequences(self, sequences: Sequence[int]) -> None:
        """Restore per-shard activation sequence counters (recovery startup).

        A recovered server must continue numbering where the crashed process
        stopped, so that ``(shard, sequence)`` remains a total order per shard
        across restarts and durable subscriber cursors stay meaningful.  Only
        call this before :meth:`start`.
        """
        if len(sequences) != self.shard_count:
            raise ServingError(
                f"expected {self.shard_count} sequence seeds, got {len(sequences)}"
            )
        if self._running:
            raise ServingError("cannot seed sequences on a running server")
        self._sequences = [int(value) for value in sequences]

    def _make_listener(self, shard: int) -> Callable[[FiredTrigger], None]:
        def listener(fired: FiredTrigger) -> None:
            # Runs on the shard's (single) executing thread, inside the
            # shard database's lock — per-shard sequences need no extra lock.
            # It only numbers and collects: _run_chunk delivers the bundle.
            self._sequences[shard] += 1
            self._bundles[shard].append(Activation(
                shard, self._sequences[shard], fired.trigger, fired.view,
                fired.path, fired.event, fired.key, fired.old_node,
                fired.new_node, fired.encoded,
            ))

        return listener

    def _deliver_bundle(self, shard: int) -> None:
        """Hand the shard's collected bundle to the hooks, then the subscribers."""
        bundle = self._bundles[shard]
        if not bundle:
            return
        self._bundles[shard] = []
        for hook in self._activation_hooks:
            hook(bundle)
        with self._subscribers_lock:
            targets = [s for s in self._subscribers if not s.closed]
        for subscriber in targets:
            subscriber._offer_many(bundle, give_up=self._aborting.is_set)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> "ActiveViewServer":
        """Spawn one worker thread per shard; returns ``self`` for chaining."""
        if self._running:
            return self
        self._aborting.clear()
        self._running = True
        self._threads = []
        for index in range(self.shard_count):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,), name=f"shard-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def drain(self) -> None:
        """Block until every queued statement has been executed."""
        for shard_queue in self._queues:
            shard_queue.join()

    def stop(self, *, drain: bool = True) -> None:
        """Stop the workers.

        With ``drain=True`` (default) queued statements finish first and
        every accepted activation is delivered.  With ``drain=False`` pending
        submissions fail with :class:`~repro.errors.ServerStoppedError` and
        publishers stop retrying full subscriber queues (deliveries abandoned
        this way are counted on each subscriber).
        """
        if not self._running:
            return
        self._running = False
        if drain:
            self.drain()
        else:
            self._aborting.set()
        for shard_queue in self._queues:
            shard_queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads = []
        # submit() checks _running without a lock, so a racing client may
        # have enqueued behind the sentinel after the drain; sweep the queues
        # so no ticket is left hanging (and no stale sentinel can kill a
        # restarted worker).
        for shard_queue, slots in zip(self._queues, self._slots):
            while True:
                try:
                    item = shard_queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    item.ticket._fail(ServerStoppedError("server stopped before execution"))
                    slots.release()
                shard_queue.task_done()

    def __enter__(self) -> "ActiveViewServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ submission

    def submit(self, statement: Statement) -> Ticket:
        """Enqueue one DML statement; returns a :class:`Ticket` immediately.

        Routed statements go to their owning shard's queue; broadcast
        statements (no key set to route by) are enqueued on every shard and
        complete when all shards have run them.  Blocks only when the target
        queue is full (backpressure).
        """
        targets = self._targets(statement)
        ticket = Ticket(parts=len(targets))
        for index in targets:
            self._slots[index].acquire()
            self._put(index, statement, ticket)
        return ticket

    def try_submit(self, statement: Statement) -> Ticket | None:
        """:meth:`submit` for a caller that must not block (an event loop).

        Returns ``None``, with nothing enqueued anywhere, when a shard queue
        the statement needs is full — a broadcast statement is on every
        shard's queue or on none.
        """
        targets = self._targets(statement)
        for taken, index in enumerate(targets):
            if not self._slots[index].acquire(blocking=False):
                for held in targets[:taken]:
                    self._slots[held].release()
                return None
        ticket = Ticket(parts=len(targets))
        for index in targets:
            self._put(index, statement, ticket)
        return ticket

    def _targets(self, statement: Statement) -> Sequence[int]:
        """The shards whose queues ``statement`` goes on (all, for a broadcast)."""
        if not self._running:
            raise ServerStoppedError("server is not running (call start())")
        shard = self.sharded.statement_shard(statement)
        return range(self.shard_count) if shard is None else (shard,)

    def _put(self, shard: int, statement: Statement, ticket: Ticket) -> None:
        """Enqueue on ``shard``, whose slot the caller has taken."""
        with self._submit_lock:
            self.stats[shard].submitted += 1
        self._queues[shard].put(_Submission(statement, ticket))

    def execute(
        self, statement: Statement, timeout: float | None = 30.0
    ) -> StatementResult | list[StatementResult]:
        """Submit one statement and block for its result (closed-loop client)."""
        return self.submit(statement).result(timeout)

    def submit_many(self, statements: Iterable[Statement]) -> list[Ticket]:
        """Submit a stream of statements without waiting (open-loop client)."""
        return [self.submit(statement) for statement in statements]

    # ------------------------------------------------------------------ results

    @property
    def fired(self) -> list[FiredTrigger]:
        """Recent firings across shards (per-shard order preserved, shards concatenated).

        A window, not a history: each shard worker keeps its last
        :data:`HISTORY_WINDOW` firings.  Consume activations through
        :meth:`subscribe`.
        """
        combined: list[FiredTrigger] = []
        for service in self.services:
            combined.extend(service.fired)
        return combined

    @property
    def activations_published(self) -> int:
        """Total activations produced across shards."""
        return sum(self._sequences)

    @property
    def sequences(self) -> list[int]:
        """Current per-shard activation sequence counters (copy)."""
        return list(self._sequences)

    @property
    def queue_depths(self) -> list[int]:
        """Statements waiting per shard queue (approximate — workers race).

        A persistently deep queue on one shard is the producer-side signal
        that routing is skewed; the network front end surfaces it through
        the ``stats`` frame next to the wire-side per-loop counters.
        """
        return [shard_queue.qsize() for shard_queue in self._queues]

    def clear_logs(self) -> None:
        """Forget recorded firings and action calls on every shard service."""
        for service in self.services:
            service.clear_logs()

    def evaluation_report(self) -> dict[str, int]:
        """Summed evaluation counters and result-cache stats across shards.

        Compiled physical plans are shared across shards through the server's
        :class:`~repro.core.service.PlanCache` (the view-closure contract
        guarantees every shard exposes the same catalog), but each shard
        service keeps its **own** version-stamped result cache — cached rows
        are data, and every shard holds different data — and every statement
        its own evaluation memo, on whichever shard thread fires it.  This
        report merges the per-shard counters for a whole-server view,
        including the statement-sharing ones (``shared_side_evaluations`` /
        ``shared_side_reuses`` / ``pairs_memo_hits``).
        """
        combined: dict[str, int] = {}
        for service in self.services:
            for key, value in service.evaluation_report().items():
                combined[key] = combined.get(key, 0) + value
        return combined

    # ------------------------------------------------------------------ worker loop

    def _worker_loop(self, index: int) -> None:
        shard_queue = self._queues[index]
        slots = self._slots[index]
        service = self.services[index]
        while True:
            item = shard_queue.get()
            if item is _STOP:
                shard_queue.task_done()
                return
            if self._aborting.is_set():
                item.ticket._fail(ServerStoppedError("server stopped before execution"))
                slots.release()
                shard_queue.task_done()
                continue
            # Micro-batch under load: drain whatever else is already queued,
            # up to the cap.  An idle server degenerates to per-statement
            # execution; a loaded one amortizes the trigger pipeline across
            # the whole chunk.
            chunk = [item]
            while len(chunk) < self.max_batch:
                try:
                    extra = shard_queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    shard_queue.task_done()  # settle the taken sentinel ...
                    shard_queue.put(extra)   # ... and requeue it for later
                    break
                chunk.append(extra)
            slots.release(len(chunk))
            self._run_chunk(index, chunk)
            for history in (
                service.fired, service.action_calls, service.database.statement_log
            ):
                del history[:-HISTORY_WINDOW]
            for _ in chunk:
                shard_queue.task_done()

    def _run_chunk(self, shard: int, chunk: Sequence[_Submission]) -> None:
        stats = self.stats[shard]
        statements = [submission.statement for submission in chunk]
        try:
            try:
                batch = self.services[shard].execute_batch(statements)
            finally:
                # Whatever fired is delivered — also when a later action
                # raised — as one bundle, before any ticket resolves.
                self._deliver_bundle(shard)
        except Exception as exc:  # noqa: BLE001 - forwarded to the submitters
            # execute_many semantics: a failing statement's predecessors are
            # applied and no trigger has fired (a failing action or hook comes
            # later).  The whole micro-batch's tickets carry the error;
            # max_batch bounds this blast radius.
            stats.errors += 1
            for submission in chunk:
                submission.ticket._fail(exc)
            return
        stats.batches += 1
        stats.statements += len(chunk)
        stats.max_batch = max(stats.max_batch, len(chunk))
        for submission, result in zip(chunk, batch.statements):
            submission.ticket._resolve(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._running else "stopped"
        return (
            f"ActiveViewServer({state}, shards={self.shard_count}, "
            f"max_batch={self.max_batch}, activations={self.activations_published})"
        )
