"""The durable server: the persistence primitives composed around serving.

:class:`DurableServer` is the sharded serving stack
(:class:`~repro.serving.server.ActiveViewServer`) with one WAL per shard, a
shared DDL log, and a durable **activation outbox**: every activation is
appended to the outbox *before* any subscriber sees it, named subscribers
acknowledge consumption through persisted cursors, and after a restart every
accepted-but-unacknowledged activation is redelivered in per-shard order —
the paper's at-least-once activation contract extended across process
lifetimes.  Construction *is* recovery: pointed at a directory with prior
state it rebuilds each shard from snapshot + WAL replay (triggers
suppressed), rehydrates views and XML triggers from the DDL log, and only
then attaches the logs for new work.  A single-writer deployment is the
default ``shard_count=1``.

Views and actions are *code*, so they cannot be pickled out of a log;
recovery re-binds them from the caller-supplied ``views=[...]`` /
``actions={...}`` arguments, while the *registrations* (which views were
registered, which triggers existed, with which conditions) replay from the
DDL log.  ``docs/operations.md`` is the runbook for all of this.
"""

from __future__ import annotations

import itertools
import math
import os
import pathlib
import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.service import ExecutionMode
from repro.core.trigger import TriggerSpec
from repro.errors import CursorError, PersistenceError, RecoveryError
from repro.persist.records import (
    bundle_from_record,
    bundle_to_record,
    spec_from_record,
    spec_to_record,
)
from repro.persist.recovery import DDL_FILE, SNAPSHOT_FILE, recover_database
from repro.persist.snapshot import Snapshot
from repro.persist.wal import RecordLog, WriteAheadLog
from repro.relational.database import Database
from repro.relational.dml import Statement
from repro.relational.sharded import RoutingKeyFunction, ShardedDatabase
from repro.serving.server import ActiveViewServer
from repro.serving.subscribers import Activation, Subscriber
from repro.xqgm.views import ViewDefinition

__all__ = ["DurableServer", "OUTBOX_FILE", "CURSORS_FILE", "META_FILE"]

OUTBOX_FILE = "outbox.log"
CURSORS_FILE = "cursors.log"
META_FILE = "meta.log"

#: In-memory outbox entries at which an append first re-checks what every
#: known subscriber has acked (see ``DurableServer._drop_acked``).
PENDING_RECHECK = 1024


class _RegistryLog:
    """Shared DDL-log handling: replay, recording, and compaction."""

    def __init__(self, path: pathlib.Path, sync: str) -> None:
        self.log = RecordLog(path, sync=sync)

    def replay_into(
        self,
        register_view: Callable[[ViewDefinition], None],
        register_triggers: Callable[[list[TriggerSpec]], Any],
        resolver: Mapping[str, ViewDefinition],
    ) -> None:
        """Rehydrate the *net* registry: only registrations that survived.

        The log is first folded to its net effect (a registration cancelled
        by a later drop is skipped entirely, as are the drop's cascaded
        trigger drops), then the surviving views are re-registered and the
        surviving triggers bulk-registered in one call, in first-registration
        order: one parse per expression skeleton and one matching-index build
        per group, however many triggers survive.  Netting matters for more
        than speed: transient registry states may reference tables that were
        dropped later in the history, and re-validating them against the
        *final* (post-WAL-replay) table catalog would fail even though the
        final registry is perfectly consistent.
        """
        records = list(self.log.replay())
        if self.log.torn_tail:
            self.log.trim()
        views: dict[str, None] = {}
        triggers: dict[str, TriggerSpec] = {}
        for record in records:
            kind = record.get("kind")
            if kind == "register_view":
                views.pop(record["view"], None)
                views[record["view"]] = None
            elif kind == "drop_view":
                views.pop(record["view"], None)
            elif kind == "create_trigger":
                spec = spec_from_record(record["spec"])
                triggers.pop(spec.name, None)
                triggers[spec.name] = spec
            elif kind == "drop_trigger":
                triggers.pop(record["name"], None)
            else:
                raise RecoveryError(f"unknown DDL record kind {kind!r}")
        for name in views:
            if name not in resolver:
                raise RecoveryError(
                    f"recovery needs view {name!r}: pass its ViewDefinition "
                    "in views=[...] (views are code and cannot be logged)"
                )
            register_view(resolver[name])
        register_triggers(list(triggers.values()))

    def record(self, kind: str, payload: Any) -> None:
        if kind in ("register_view", "drop_view"):
            self.log.append({"kind": kind, "view": payload})
        elif kind == "create_trigger":
            self.log.append({"kind": kind, "spec": spec_to_record(payload)})
        elif kind == "drop_trigger":
            self.log.append({"kind": kind, "name": payload})
        else:  # pragma: no cover - future DDL kinds must be handled explicitly
            raise PersistenceError(f"unknown DDL event kind {kind!r}")

    def compact(self, views: Iterable[str], triggers: Iterable[TriggerSpec]) -> None:
        """Rewrite the log as the minimal registration sequence for the registry."""
        records = [{"kind": "register_view", "view": name} for name in views]
        records.extend(
            {"kind": "create_trigger", "spec": spec_to_record(spec)} for spec in triggers
        )
        self.log.rewrite(records)


class DurableServer:
    """The sharded serving layer with per-shard WALs and a durable outbox.

    Directory layout::

        dir/
          meta.log        shard count (guards against reopening with a
                          different topology — placement is shard-count
                          dependent)
          ddl.log         registry: view registrations + trigger specs
          shard<i>/       snapshot.bin + wal.log per shard
          outbox.log      accepted activations not yet acked by everyone
                          (as of the last snapshot; acked ones leave memory
                          on ack, the file when snapshot() compacts it)
          cursors.log     per-subscriber per-shard ack cursors + sequences

    Construction recovers everything: shard databases (snapshot + WAL
    replay, triggers suppressed), the registry (DDL replay through the
    server, so every shard service compiles the same triggers via the shared
    plan cache), per-shard activation sequence counters, and the pending
    outbox.  Call :meth:`start` (or use ``with``) to begin serving, and
    :meth:`subscribe` with a *stable name* to resume a durable subscription —
    everything accepted but not acked before the crash is redelivered first,
    in per-shard order.

    ``key_fn`` must be the same on every open (routing is code, like views);
    the shard count is checked against ``meta.log``.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        shard_count: int = 1,
        key_fn: RoutingKeyFunction | None = None,
        views: Sequence[ViewDefinition] = (),
        actions: Mapping[str, Callable[..., Any]] | None = None,
        mode: ExecutionMode = ExecutionMode.GROUPED_AGG,
        max_batch: int = 32,
        queue_capacity: int = 1024,
        sync: str = "flush",
        name: str = "durable",
        service_options: Mapping[str, Any] | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_meta(shard_count, name)

        self.wals: list[WriteAheadLog] = []
        databases: list[Database] = []
        for index in range(shard_count):
            database, wal = recover_database(
                self.directory / f"shard{index}", name=f"{name}_shard{index}", sync=sync
            )
            databases.append(database)
            self.wals.append(wal)
        self.sharded = ShardedDatabase.from_databases(
            databases, name=name, key_fn=key_fn
        )
        self.server = ActiveViewServer(
            self.sharded,
            mode=mode,
            max_batch=max_batch,
            queue_capacity=queue_capacity,
            service_options=dict(service_options or {}),
        )
        self._resolver = {view.name: view for view in views}
        for action_name, function in (actions or {}).items():
            self.server.register_action(action_name, function)
        self._registry = _RegistryLog(self.directory / DDL_FILE, sync)
        self._registry.replay_into(
            self.server.register_view,
            self.server.register_triggers_bulk,
            self._resolver,
        )

        # Cursors + outbox: where each named subscriber's consumption
        # stands, and the pending activations.  The cursors are read first, so
        # an outbox bundle every known subscriber has acked is dropped on its
        # ``shard`` / ``last`` fields alone, no node parsed.
        self.cursors = RecordLog(self.directory / CURSORS_FILE, sync=sync)
        self._cursors: dict[str, dict[int, int]] = {}
        sequences = [0] * shard_count
        for record in self.cursors.replay():
            kind = record.get("kind")
            if kind == "subscribe":
                self._cursors.setdefault(record["sub"], {}).update(
                    {int(shard): seq for shard, seq in record["cursor"].items()}
                )
            elif kind == "ack":
                cursor = self._cursors.setdefault(record["sub"], {})
                shard, seq = record["shard"], record["seq"]
                cursor[shard] = max(cursor.get(shard, 0), seq)
            elif kind == "sequences":
                for shard, seq in record["sequences"].items():
                    sequences[int(shard)] = max(sequences[int(shard)], seq)
            else:
                raise RecoveryError(f"unknown cursor record kind {kind!r}")
        if self.cursors.torn_tail:
            self.cursors.trim()
        # _pending holds, in outbox order, every accepted activation some
        # known subscriber has not acked, plus a bounded number of acked ones
        # not yet forgotten (_drop_acked; the file keeps them until
        # snapshot() compacts it).  It is guarded by _pending_lock because
        # shard workers append concurrently and subscribe() reads it for the
        # redelivery backlog.
        self.outbox = RecordLog(self.directory / OUTBOX_FILE, sync=sync)
        self._pending_lock = threading.Lock()
        self._pending: list[Activation] = []
        floor = self._ack_floor()
        for record in self.outbox.replay():
            if "acts" not in record:
                raise RecoveryError(
                    f"{self.outbox.path} holds per-activation records written "
                    "by an earlier version; with that version, let every "
                    "subscriber ack what it received and call snapshot() (an "
                    "empty outbox carries over), then reopen"
                )
            shard, last = record["shard"], record["last"]
            sequences[shard] = max(sequences[shard], last)
            if last > floor[shard]:
                self._pending.extend(bundle_from_record(record, floor[shard]))
        if self.outbox.torn_tail:
            self.outbox.trim()
        # Ack cursors are also sequence floors: an acked (shard, seq) must
        # have existed.  This keeps numbering correct even if a crash landed
        # between outbox compaction and the cursor-log rewrite.
        for cursor in self._cursors.values():
            for shard, seq in cursor.items():
                sequences[shard] = max(sequences[shard], seq)
        self.server.seed_sequences(sequences)
        # Per-shard watermark of activations *accepted into the outbox*,
        # maintained under _pending_lock.  It lags the server's sequence
        # counter by exactly the bundle being collected or appended, which is
        # what makes it the correct initial cursor for a brand-new subscriber.
        self._accepted: dict[int, int] = {
            shard: seq for shard, seq in enumerate(sequences)
        }
        self._drop_acked()
        #: Activations re-enqueued per subscriber name on this open.
        self.redelivered: dict[str, int] = {}
        #: Acks naming a position beyond the stream head (never persisted).
        self.acks_refused = 0

        # Recovery done — attach the durability hooks for new work.
        self._shard_wrappers = self.sharded.add_commit_listener(
            lambda index, kind, payload: self.wals[index].log_event(kind, payload)
        )
        self.server.services[0].add_ddl_listener(self._registry.record)
        self.server.add_activation_hook(self._log_bundle)

    # ------------------------------------------------------------------ meta

    def _check_meta(self, shard_count: int, name: str) -> None:
        meta = RecordLog(self.directory / META_FILE, sync="flush")
        records = list(meta.replay())
        if records:
            stored = records[0].get("shard_count")
            if stored != shard_count:
                meta.close()
                raise PersistenceError(
                    f"directory {self.directory} holds a {stored}-shard server; "
                    f"reopen with shard_count={stored} (placement is shard-count "
                    "dependent)"
                )
        else:
            meta.append({"shard_count": shard_count, "name": name})
        meta.close()

    # ------------------------------------------------------------------ durability

    def _log_bundle(self, bundle: Sequence[Activation]) -> None:
        # Runs on the shard worker thread, before any subscriber delivery:
        # "accepted" means "in the outbox".  The bundle is one record, framed
        # before the lock is taken, so shard workers contend only for one
        # file write and flush per micro-batch.
        frame = RecordLog.frame(bundle_to_record(bundle))
        shard, last = bundle[-1].shard, bundle[-1].sequence
        with self._pending_lock:
            self.outbox.append_frame(frame)
            self._pending.extend(bundle)
            self._accepted[shard] = max(self._accepted.get(shard, 0), last)
            if len(self._pending) >= self._recheck_at:
                self._drop_acked()

    def _ack_floor(self) -> dict[int, float]:
        """Per shard, the position every known subscriber has acked.

        Activations at or below it can never be redelivered to anyone.
        With no subscribers at all, nothing retained is ever consumable
        (a future new name starts at the accepted watermark), so the floor
        is infinite — otherwise the outbox would grow forever.
        """
        cursors = list(self._cursors.values())
        return {
            shard: min((cursor.get(shard, 0) for cursor in cursors), default=math.inf)
            for shard in range(self.sharded.shard_count)
        }

    def _unacked(self) -> list[Activation]:
        """In-memory outbox entries some known subscriber has not acked."""
        floor = self._ack_floor()
        return [a for a in self._pending if a.sequence > floor[a.shard]]

    def _drop_acked(self) -> None:
        """Forget in-memory outbox entries nobody can be redelivered.

        Caller holds ``_pending_lock``.  Runs when an append finds
        ``_pending`` at its re-check mark, which is then set to twice what
        survived: amortized O(1) per activation, nothing on the ack path,
        and ``_pending`` stays within ``max(PENDING_RECHECK, 2 x unacked)``
        however long the server runs.  The outbox *file* is compacted by
        :meth:`snapshot` only.
        """
        self._pending = self._unacked()
        self._recheck_at = max(PENDING_RECHECK, 2 * len(self._pending))

    def _on_ack(self, subscriber: str, shard: int, sequence: int) -> None:
        # _accepted only grows and an activation is accepted before any
        # subscriber sees it, so this unlocked read can never refuse a
        # position a client honestly received.
        if sequence > self._accepted.get(shard, -1):
            # Beyond the stream head (or no such shard): persisting it would
            # skip everything fired up to that position while the subscriber
            # is away; clamping to the head would ack activations it may
            # never have received.  Refuse and count.
            self.acks_refused += 1
            return
        known = subscriber in self._cursors
        cursor = self._cursors.setdefault(subscriber, {})
        if known and sequence <= cursor.get(shard, 0):
            return  # a repeated ack (after a redelivery, say) moves nothing
        cursor[shard] = sequence
        self.cursors.append(
            {"kind": "ack", "sub": subscriber, "shard": shard, "seq": sequence}
        )

    def fast_forward(self, name: str, cursor: Mapping[int, int]) -> None:
        """Advance a named subscriber's persisted cursor before resuming.

        Both front ends (TCP and web) let a reconnecting client present the
        per-shard cursor it last acked; replaying it here — *before*
        :meth:`subscribe` computes the backlog — skips redelivery of
        everything at or below those positions.  Positions behind the
        persisted cursor are ignored (cursors only move forward), so a
        stale client cursor can never rewind delivery.  A position beyond
        the shard's accepted head (or on a shard that does not exist)
        raises :class:`~repro.errors.CursorError` and nothing is persisted:
        such a cursor would silently discard every activation fired up to
        it.
        """
        positions = {int(shard): int(seq) for shard, seq in cursor.items()}
        for shard, sequence in positions.items():
            head = self._accepted.get(shard)
            if head is None:
                raise CursorError(f"cursor names shard {shard}, which does not exist")
            if sequence > head:
                raise CursorError(
                    f"cursor position {sequence} on shard {shard} is beyond "
                    f"the stream head {head}"
                )
        for shard, sequence in positions.items():
            self._on_ack(name, shard, sequence)

    def subscribe(
        self, name: str, capacity: int = 256, *, subscriber: Subscriber | None = None
    ) -> Subscriber:
        """Attach (or resume) a durable named subscription.

        A *known* name (one that subscribed before — in a previous process
        *or* earlier in this one) first receives every accepted activation
        beyond its persisted cursor — the at-least-once redelivery path —
        then new activations as they happen.  The backlog is enqueued
        *before* the subscriber joins live fan-out, so per-shard order holds
        across the hand-off (an activation racing the hand-off may arrive
        twice, which at-least-once permits).  A *new* name starts at the
        current stream position; its subscription (with the current
        sequences as the initial cursor) is recorded so a later recovery
        knows what it has and has not seen.  Acking
        (:meth:`~repro.serving.subscribers.Subscriber.ack`) persists the
        cursor.

        ``subscriber`` optionally injects a pre-built subscriber (the
        network front end passes one whose delivery hands off to its event
        loop).  An injected subscriber's ``_offer_many`` must be non-blocking;
        in exchange it owns its own overflow policy, so the backlog-fits-
        capacity check is skipped — a refused backlog entry stays unacked
        in the outbox and is simply redelivered on the next resume, which
        is exactly how the net layer pages a large backlog through a
        bounded send buffer across reconnects.
        """
        injected = subscriber is not None
        if subscriber is None:
            subscriber = Subscriber(name, capacity)
        elif subscriber.name != name:
            raise PersistenceError(
                f"injected subscriber is named {subscriber.name!r}, not {name!r}"
            )
        subscriber.on_ack = self._on_ack
        # Holding _pending_lock across cursor/backlog computation + attach
        # closes the gap where a concurrent activation could miss every
        # path: a producer is either before its hook (blocked on this lock —
        # the activation is beyond the cursor we record and will fan out to
        # us live after attach) or past it (already in _pending/_accepted,
        # so covered by the backlog or excluded by an accurate cursor).  An
        # activation whose hook ran but whose fan-out is still in flight can
        # arrive twice — at-least-once permits that.  Lock order (pending ->
        # subscribers) matches the producer path, and the capacity check
        # keeps the backlog hand-off non-blocking, so no deadlock.
        with self._pending_lock:
            known = name in self._cursors
            if known:
                cursor = self._cursors[name]
                backlog = [
                    activation
                    for activation in self._pending
                    if activation.sequence > cursor.get(activation.shard, 0)
                ]
                if not injected and len(backlog) > capacity:
                    raise PersistenceError(
                        f"subscriber {name!r} has {len(backlog)} activations to "
                        f"redeliver but capacity {capacity}; subscribe with a "
                        "larger capacity"
                    )
                subscriber._offer_many(backlog, give_up=lambda: False)
                self.redelivered[name] = len(backlog)
            else:
                # The accepted watermark — not the server's sequence counter,
                # which may already count an activation whose outbox append
                # is still in flight on another thread.
                initial = dict(self._accepted)
                self._cursors[name] = dict(initial)
                self.cursors.append(
                    {"kind": "subscribe", "sub": name, "cursor": initial}
                )
            self.server.attach_subscriber(subscriber)
        return subscriber

    # ------------------------------------------------------------------ registry

    def ensure_view(self, view: ViewDefinition) -> None:
        """Register a view on every shard unless the registry already has it."""
        self._resolver[view.name] = view
        if view.name not in self.server.services[0].views:
            self.server.register_view(view)

    def ensure_trigger(self, definition: str | TriggerSpec) -> TriggerSpec:
        """Create a trigger unless the recovered registry already has it."""
        from repro.core.language import parse_trigger

        spec = parse_trigger(definition) if isinstance(definition, str) else definition
        existing = {existing.name: existing for existing in self.server.triggers}
        if spec.name in existing:
            return existing[spec.name]
        return self.server.create_trigger(spec)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> "DurableServer":
        """Start the shard workers; returns ``self`` for chaining."""
        self.server.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the shard workers (see :meth:`ActiveViewServer.stop`)."""
        self.server.stop(drain=drain)

    def __enter__(self) -> "DurableServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def snapshot(self) -> None:
        """Checkpoint everything: per-shard snapshots + log compaction.

        Drains the queues first (quiesce), snapshots each shard and truncates
        its WAL, compacts the DDL log to the current registry, drops outbox
        entries every known subscriber has acked, and rewrites the cursor log
        to its compact form (current cursors + sequence floor).  Safe to call
        while the server is running as long as no client is submitting
        concurrently (the operational contract — see docs/operations.md).
        """
        if self.server._running:
            self.server.drain()
        for index, wal in enumerate(self.wals):
            database = self.sharded.shards[index]
            with database._lock:
                snapshot = Snapshot.capture(database, wal_lsn=wal.last_lsn)
            snapshot.write(self.directory / f"shard{index}" / SNAPSHOT_FILE)
            wal.truncate()
        service = self.server.services[0]
        self._registry.compact(service.views, list(service.triggers))
        # Cursor/sequence state is rewritten BEFORE the outbox is compacted:
        # a crash between the two leaves acked entries in the outbox (cursors
        # filter them out on redelivery — harmless), whereas the opposite
        # order could lose the sequence floor and renumber future
        # activations into already-acked territory.
        cursor_records: list[dict] = [
            {
                "kind": "sequences",
                "sequences": {shard: seq for shard, seq in enumerate(self.server.sequences)},
            }
        ]
        cursor_records.extend(
            {"kind": "subscribe", "sub": sub, "cursor": dict(cursor)}
            for sub, cursor in self._cursors.items()
        )
        self.cursors.rewrite(cursor_records)
        with self._pending_lock:
            # Keep only activations some known subscriber still has not acked.
            self._drop_acked()
            self._pending = _dedupe_activations(self._pending)
            self.outbox.rewrite(
                bundle_to_record(list(run))
                for _, run in itertools.groupby(self._pending, lambda a: a.shard)
            )

    def durability_report(self) -> dict:
        """Wire-encodable snapshot of the outbox and cursor state.

        Surfaced by the network front end's ``stats`` frame so an operator
        can see, per durable subscriber, how far its cursor lags the
        accepted watermark (the redelivery debt a crash would incur).
        ``outbox_pending`` counts the accepted activations some known
        subscriber has not acked.
        """
        with self._pending_lock:
            pending = len(self._unacked())
            accepted = dict(self._accepted)
            cursors = {
                name: dict(cursor) for name, cursor in list(self._cursors.items())
            }
        return {
            "outbox_pending": pending,
            "accepted": accepted,
            "cursors": cursors,
            "redelivered": dict(self.redelivered),
            "acks_refused": self.acks_refused,
        }

    def close(self) -> None:
        """Stop (draining) and close every durable file."""
        self.stop(drain=True)
        self.sharded.remove_commit_listeners(self._shard_wrappers)
        self.server.services[0].remove_ddl_listener(self._registry.record)
        self.server.remove_activation_hook(self._log_bundle)
        for wal in self.wals:
            wal.close()
        self._registry.log.close()
        self.outbox.close()
        self.cursors.close()

    # ------------------------------------------------------------------ passthrough

    def submit(self, statement: Statement):
        """Enqueue a statement on its owning shard (see ``ActiveViewServer.submit``)."""
        return self.server.submit(statement)

    def execute(self, statement: Statement, timeout: float | None = 30.0):
        """Submit and wait (closed-loop client call)."""
        return self.server.execute(statement, timeout)

    def drain(self) -> None:
        """Block until every queued statement has executed."""
        self.server.drain()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableServer({self.directory}, shards={self.sharded.shard_count}, "
            f"pending={len(self._pending)})"
        )


def _dedupe_activations(activations: Iterable[Activation]) -> list[Activation]:
    """Drop duplicate (shard, sequence) entries, keeping first occurrence."""
    seen: set[tuple[int, int]] = set()
    result: list[Activation] = []
    for activation in activations:
        key = (activation.shard, activation.sequence)
        if key in seen:
            continue
        seen.add(key)
        result.append(activation)
    return result
