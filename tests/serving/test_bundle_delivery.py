"""Activations leave a shard worker as one bundle per micro-batch.

The paper's translation is set-oriented end to end (Section 5, Figure 12:
one statement trigger produces *all* affected ``(OLD_NODE, NEW_NODE)``
pairs at once); the layers behind ``core.activate`` keep that shape.  What
one ``execute_batch`` call fired crosses every layer as one unit: one
outbox frame holding each distinct node text once, one ``write`` + ``flush``,
one hand-off per subscriber, at most one loop wake-up — and the delivered
stream is exactly the one per-activation delivery gave.

Counted, not timed (the style of ``tests/core/test_hot_path_no_reparse.py``
and ``tests/serving/test_encode_once.py``).  ``REPRO_PROPERTY_EXAMPLES``
scales the randomized differential; ``REPRO_TEST_SEED`` replays it.
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.core.service import ActiveViewService
from repro.errors import TriggerActivationError
from repro.persist import DurableServer
from repro.relational.triggers import TriggerEvent
from repro.serving.net import NetClient, NetworkServer
from repro.serving.net.session import LoopSubscriber
from repro.serving.subscribers import Activation, Subscriber

from tests.serving.conftest import (
    SIBLINGS,
    load_sibling_durable,
    open_sibling_durable,
    price_update,
    sibling_hierarchy,
    sibling_triggers,
    stream_position as position,
)

BATCH = 32
ROUNDS = max(4, int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15")) // 3)


class Gate:
    """Parks the (single) shard worker inside a statement's action.

    While the gate is shut the ``collect`` action blocks, so whatever is
    submitted behind the parked statement queues up and runs as ONE
    micro-batch once the gate opens.
    """

    def __init__(self) -> None:
        self._open = threading.Event()
        self._open.set()
        self._entered = threading.Event()

    def collect(self, node) -> None:
        self._entered.set()
        assert self._open.wait(30)

    def as_one_batch(self, server, plug, statements) -> list:
        """Run ``plug`` alone, then ``statements`` as one micro-batch."""
        self._open.clear()
        self._entered.clear()
        tickets = [server.submit(plug)]
        assert self._entered.wait(30)
        tickets += [server.submit(statement) for statement in statements]
        self._open.set()
        for ticket in tickets:
            try:
                ticket.result(30)
            except TriggerActivationError:
                pass
        return tickets


class Boom(Exception):
    """Raised by the ``explode`` action."""


class CountingFile:
    """The outbox's file object, counting what is asked of it."""

    def __init__(self, file) -> None:
        self._file = file
        self.writes = 0
        self.flushes = 0

    def write(self, data) -> int:
        self.writes += 1
        return self._file.write(data)

    def flush(self) -> None:
        self.flushes += 1
        self._file.flush()

    def __getattr__(self, name):
        return getattr(self._file, name)


def test_one_micro_batch_is_one_frame_one_flush_one_wakeup(tmp_path, serialize_calls):
    calls = serialize_calls
    gate = Gate()
    workload = sibling_hierarchy()
    durable = open_sibling_durable(tmp_path, workload, shard_count=1, collect=gate.collect)
    load_sibling_durable(durable, workload)
    inbox = durable.subscribe("inbox", capacity=4096)
    durable.start()
    net = NetworkServer(durable, loops=1).start()

    def wakeups() -> int:
        return sum(loop["wake_wakeups"] for loop in net.net_report()["per_loop"])

    async def scenario() -> None:
        loop = asyncio.get_running_loop()
        client = await NetClient.connect(*net.address)
        stream = await client.subscribe("wire")

        async def everyone_receives(activations: int) -> list:
            for _ in range(activations):
                assert await stream.get(timeout=30) is not None
            return await loop.run_in_executor(
                None, lambda: [inbox.get(timeout=30) for _ in range(activations)]
            )

        await loop.run_in_executor(None, durable.execute, price_update(workload, 40, 901.0))
        await everyone_receives(SIBLINGS)

        outbox = durable.outbox
        outbox._file = counting = CountingFile(outbox._file)
        stats = durable.server.stats[0]
        before = stats.batches, outbox.appended, wakeups(), calls["serialize"]
        await loop.run_in_executor(
            None,
            gate.as_one_batch,
            durable,
            price_update(workload, 41, 902.0),
            [price_update(workload, top, 903.0) for top in range(1, BATCH + 1)],
        )
        assert stats.max_batch == BATCH
        delivered = await everyone_receives(SIBLINGS * (1 + BATCH))
        bundles = stats.batches - before[0]
        assert bundles == 2  # the parked statement, then the 32 behind it
        assert outbox.appended - before[1] == bundles
        assert (counting.writes, counting.flushes) == (bundles, bundles)
        assert wakeups() - before[2] <= bundles
        assert calls["serialize"] - before[3] == 2 * (1 + BATCH)

        # The 32-statement bundle's frame: 256 thin rows over 32 node pairs,
        # each of the 64 texts in the file exactly once.
        outbox._file = counting._file
        record = list(outbox.replay())[-1]
        assert (record["shard"], record["last"]) == (0, delivered[-1].sequence)
        assert len(record["acts"]) == SIBLINGS * BATCH
        texts = [text for pair in record["nodes"] for text in pair]
        assert len(texts) == len(set(texts)) == 2 * BATCH
        raw = outbox.path.read_bytes()
        assert all(raw.count(text.encode()) == 1 for text in texts)
        await client.close()

    try:
        asyncio.run(asyncio.wait_for(scenario(), timeout=120))
    finally:
        gate._open.set()
        net.stop()
        durable.close()


class RecordingHub:
    """Stands in for a loop's ``WakeHub``: keeps what was posted, runs nothing."""

    def __init__(self) -> None:
        self.posted: list = []

    def post(self, fn, on_fail=None) -> None:
        self.posted.append(fn)


def loop_subscriber(name: str, limit: int):
    hub, seen = RecordingHub(), []
    subscriber = LoopSubscriber(
        name, limit=limit, hub=hub, deliver=seen.extend,
        overflow=lambda: seen.append("paused"),
    )
    return subscriber, hub, seen


def test_delivered_stream_equals_sequential_per_activation_delivery(tmp_path, session_rng):
    """Differential against the parent's semantics: a sequential
    ``ActiveViewService`` over the same batches, every firing numbered and
    delivered the moment it happens."""
    rng = session_rng
    gate = Gate()
    workload = sibling_hierarchy()
    tops = workload.parameters.top_elements
    element = workload.level_element(0)
    view = workload.parameters.view_name
    fuse = {"name": None}

    def explode(node) -> None:
        if node.attribute("name") == fuse["name"]:
            raise Boom(fuse["name"])

    # Two trigger shapes, so two groups fire per statement: the collectors
    # and, registered after them, one exploder per top.
    triggers = sibling_triggers(workload) + [
        f"CREATE TRIGGER x{top} AFTER UPDATE ON view('{view}')/{element} "
        f"WHERE NEW_NODE/@name = '{workload.top_name(top)}' DO explode(NEW_NODE)"
        for top in range(1, tops + 1)
    ]

    expected: list[tuple] = []
    reference = ActiveViewService(workload.build_database())
    reference.register_view(workload.build_view())
    reference.register_action("collect", lambda node: None)
    reference.register_action("explode", explode)
    reference.register_triggers_bulk(triggers)
    reference.add_activation_listener(
        lambda fired: expected.append(
            (0, len(expected) + 1, fired.trigger, fired.key,
             fired.encoded.old_text, fired.encoded.new_text)
        )
    )

    def open_durable() -> DurableServer:
        return DurableServer(
            tmp_path,
            views=[workload.build_view()],
            actions={"collect": gate.collect, "explode": explode},
        )

    durable = open_durable()
    workload._populate(durable.sharded)
    durable.ensure_view(workload.build_view())
    durable.server.register_triggers_bulk(triggers)
    inbox = durable.subscribe("inbox", capacity=1 << 16)
    limit = rng.randrange(1, 5 * SIBLINGS)  # below, at or beyond the first bundle
    wire, hub, seen = loop_subscriber("wire", limit)
    twin, twin_hub, twin_seen = loop_subscriber("twin", limit)
    durable.server.attach_subscriber(wire)
    durable.start()
    raised_after_firing = 0
    try:
        for turn in range(ROUNDS):
            plug = price_update(workload, tops, 100.0 + turn)
            touched = [rng.randrange(1, tops) for _ in range(rng.randrange(1, BATCH + 1))]
            batch = [price_update(workload, top, 200.0 + rng.random()) for top in touched]
            if turn % 2:
                # This batch's exploder raises — after the collectors fired.
                fuse["name"] = workload.top_name(rng.choice(touched))
            for statements in ([plug], batch):
                mark = len(expected)
                try:
                    reference.execute_batch(statements)
                except TriggerActivationError:
                    raised_after_firing += len(expected) > mark
            tickets = gate.as_one_batch(durable, plug, batch)
            assert any(ticket._error for ticket in tickets) == bool(turn % 2)
            fuse["name"] = None
        durable.drain()
        assert raised_after_firing == ROUNDS // 2
        delivered = inbox.drain()
        assert [position(a) for a in delivered] == expected
        assert len(expected) > limit

        # The loop subscriber took the prefix that fits, then paused — as
        # when the same stream is offered one activation at a time.
        for activation in delivered:
            twin._offer_many([activation], give_up=lambda: False)
        for posted in hub.posted + twin_hub.posted:
            posted()
        assert [position(a) for a in seen[:-1]] == expected[:limit]
        assert seen[-1] == "paused" and len(seen) == limit + 1
        assert seen == twin_seen
        for counter in ("delivered", "refused", "filtered", "inflight", "paused"):
            assert getattr(wire, counter) == getattr(twin, counter), counter
    finally:
        gate._open.set()
        durable.stop()

    # Crash (no close), reopen: nothing was acked, so the outbox hands the
    # whole stream back — through the bundle record and its node table.
    recovered = open_durable()
    try:
        resumed = recovered.subscribe("inbox", capacity=1 << 16)
        assert [position(a) for a in resumed.drain()] == expected
    finally:
        recovered.close()
        durable.close()


@pytest.mark.parametrize("capacity", [SIBLINGS * BATCH, SIBLINGS])
def test_in_process_subscriber_gets_the_bundle_in_order(capacity):
    """Whether the queue has room for the bundle or the worker must wait for
    the consumer item by item — it arrives complete and in order."""
    bundle = [
        Activation(0, n, "t", "v", ("top",), TriggerEvent.UPDATE, (n,), None, None)
        for n in range(1, SIBLINGS * BATCH + 1)
    ]
    subscriber = Subscriber("inbox", capacity)
    received: list = []
    consumer = threading.Thread(
        target=lambda: received.extend(subscriber.get(timeout=30) for _ in bundle)
    )
    consumer.start()
    subscriber._offer_many(bundle, give_up=lambda: False)
    consumer.join(timeout=30)
    assert not consumer.is_alive()
    assert received == bundle
    assert (subscriber.delivered, subscriber.abandoned) == (len(bundle), 0)
