"""The wire path works per burst, on both sides of the shard worker.

The paper's translation is set-oriented (Section 5, Figure 12); the socket
front ends keep that shape.  **In**: statements a client pipelines go from
the connection's read loop straight onto the shard queues — no thread hop,
so they are all queued by the time the worker looks and run as one
micro-batch.  **Out**: what the micro-batch fired leaves as one node-table
frame, each node text in it once, and its ticket completions share the
loop wake-up of its activations.  A full shard queue blocks the one
connection that filled it and nothing else.

Counted, not timed (the style of ``tests/core/test_hot_path_no_reparse.py``
and ``tests/serving/test_bundle_delivery.py``).
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.relational.dml import UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.serving.net.protocol import (
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    read_frame,
    read_frame_payload,
    statement_to_wire,
)

from tests.serving.conftest import (
    SIBLINGS,
    price_update,
    sibling_hierarchy,
    sibling_triggers,
)

BATCH = 32


class NameGate:
    """Parks a shard worker inside the action of a chosen top element."""

    def __init__(self) -> None:
        self._stops: dict[str, tuple[threading.Event, threading.Event]] = {}

    def stop_at(self, *names: str) -> tuple[threading.Event, threading.Event]:
        """The first ``collect`` on any of ``names`` parks: ``(parked, go)``."""
        pair = (threading.Event(), threading.Event())
        self._stops.update(dict.fromkeys(names, pair))
        return pair

    def collect(self, node) -> None:
        pair = self._stops.get(node.attribute("name"))
        if pair is not None:
            for name in [name for name, other in self._stops.items() if other is pair]:
                del self._stops[name]
            pair[0].set()
            assert pair[1].wait(30)

    def open(self) -> None:
        stops, self._stops = self._stops, {}
        for _parked, go in stops.values():
            go.set()


@pytest.fixture
def stack():
    """``(workload, gate, server, net)``: volatile server behind one loop."""
    made = []

    def build(shards: int = 1, write_buffer_limit=None, **server_options):
        workload = sibling_hierarchy()
        gate = NameGate()
        server = ActiveViewServer(workload.build_sharded_database(shards), **server_options)
        server.register_view(workload.build_view())
        server.register_action("collect", gate.collect)
        server.register_triggers_bulk(sibling_triggers(workload))
        server.start()
        net = NetworkServer(server, write_buffer_limit=write_buffer_limit).start()
        made.append((gate, server, net))
        return workload, gate, server, net

    yield build
    for gate, server, net in made:
        gate.open()
        net.stop()
        server.stop(drain=False)


@pytest.fixture
def to_thread_calls(monkeypatch) -> list:
    """Every ``asyncio.to_thread`` call made during the test (its function)."""
    calls = []
    original = asyncio.to_thread

    async def counting(function, *args, **kwargs):
        calls.append(function)
        return await original(function, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting)
    return calls


async def until(condition, what: str) -> None:
    for _ in range(3000):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting until {what}")


class RawSubscriber:
    """A subscribed connection that hands back the frames as they arrived."""

    @classmethod
    async def open(cls, host: str, port: int) -> "RawSubscriber":
        self = cls()
        self.reader, self.writer = await asyncio.open_connection(host, port)
        # A ``caps`` field in the hello is ignored.
        self.writer.write(encode_frame(
            {"type": "hello", "version": PROTOCOL_VERSION, "caps": ["activation_batch"]}
        ))
        assert (await read_frame(self.reader))["type"] == "welcome"
        self.writer.write(encode_frame({"type": "subscribe", "id": 1, "name": None}))
        assert (await read_frame(self.reader))["type"] == "subscribed"
        return self

    async def frame(self) -> tuple[bytes, dict]:
        payload = await asyncio.wait_for(read_frame_payload(self.reader), 30)
        return payload, decode_payload(payload)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def wake_counts(net: NetworkServer) -> tuple[int, int]:
    report = net.net_report()
    return report["wake_posts"], report["wake_wakeups"]


def run(scenario) -> None:
    asyncio.run(asyncio.wait_for(scenario, timeout=120))


def test_pipelined_submits_reach_the_queues_without_a_thread_hop(stack, to_thread_calls):
    workload, gate, server, net = stack()
    stats = server.stats[0]

    async def scenario() -> None:
        producer = await NetClient.connect(*net.address)
        parked, go = gate.stop_at(workload.top_name(64))
        plug = server.submit(price_update(workload, 64, 900.0))
        assert await asyncio.to_thread(parked.wait, 30)
        del to_thread_calls[:]
        batches = stats.batches
        burst = [
            asyncio.ensure_future(producer.execute(price_update(workload, top, 901.0)))
            for top in range(1, 2 * BATCH + 1)
        ]
        # All 64 are on the shard queue while its worker is still parked in
        # the statement before them: nothing waited for the worker's turn.
        await until(lambda: server.queue_depths == [2 * BATCH], "64 statements are queued")
        assert to_thread_calls == []
        go.set()
        results = await asyncio.gather(*burst)
        assert plug.result(30).rowcount == 1
        assert all(result[0]["rowcount"] == 1 for result in results)
        assert to_thread_calls == []
        assert stats.batches - batches <= 4  # the plug, then 64 in chunks of max_batch
        assert stats.max_batch == BATCH
        await producer.close()

    run(scenario())


def test_one_micro_batch_leaves_as_one_frame_and_two_wakeups(
    stack, serialize_calls, to_thread_calls
):
    workload, gate, server, net = stack()
    stats = server.stats[0]
    names = [workload.top_name(top) for top in range(1, BATCH + 1)]

    async def scenario() -> None:
        listener = await RawSubscriber.open(*net.address)
        producer = await NetClient.connect(*net.address)
        parked, go = gate.stop_at(workload.top_name(64))
        plug = asyncio.ensure_future(producer.execute(price_update(workload, 64, 900.0)))
        assert await asyncio.to_thread(parked.wait, 30)
        burst = [
            asyncio.ensure_future(producer.execute(price_update(workload, top, 901.0)))
            for top in range(1, BATCH + 1)
        ]
        await until(lambda: server.queue_depths == [BATCH], "the burst is queued")
        # Let the plug finish and park the worker again inside the burst's
        # own micro-batch: everything of the plug is out before counting.
        inside, proceed = gate.stop_at(*names)
        go.set()
        assert await asyncio.to_thread(inside.wait, 30)
        await plug
        _payload, first = await listener.frame()
        assert first["type"] == "activation_batch" and len(first["acts"]) == SIBLINGS
        # Two welcomes, the subscription's ack, the plug's reply and its
        # frame: a write is counted once it returned, maybe after it arrived.
        await until(lambda: net.counters["frames_sent"] >= 5, "the writes so far are counted")
        del to_thread_calls[:]
        posts, wakeups = wake_counts(net)
        before = net.net_report()
        serialized, batches = serialize_calls["serialize"], stats.batches

        proceed.set()
        payload, message = await listener.frame()
        await asyncio.gather(*burst)
        # The loop counts a write once it returned; the replies are here sooner.
        written = before["frames_sent"] + 1 + BATCH
        await until(lambda: net.counters["frames_sent"] >= written, "the writes are counted")
        after = net.net_report()

        assert stats.batches - batches == 1 and stats.max_batch == BATCH
        # One frame: 256 thin rows over 32 node pairs, each text in it once.
        assert message["type"] == "activation_batch"
        assert len(message["acts"]) == SIBLINGS * BATCH
        assert len(message["nodes"]) == BATCH
        texts = [text for pair in message["nodes"] for text in pair]
        assert len(set(texts)) == 2 * BATCH
        assert all(payload.count(text.encode()) == 1 for text in texts)
        assert len(payload) <= 3 * 1024 * BATCH
        assert after["activation_batches_sent"] - before["activation_batches_sent"] == 1
        assert after["activations_sent"] - before["activations_sent"] == SIBLINGS * BATCH
        # ... and 32 replies; nothing else was written.
        assert after["frames_sent"] - before["frames_sent"] == 1 + BATCH
        assert serialize_calls["serialize"] - serialized == 2 * BATCH
        # The bundle and the 32 ticket completions: 33 posts, at most 2 wake-ups.
        posts_after, wakeups_after = wake_counts(net)
        assert posts_after - posts == 1 + BATCH
        assert wakeups_after - wakeups <= 2
        assert to_thread_calls == []
        await listener.close()
        await producer.close()

    run(scenario())


def test_a_full_shard_queue_blocks_one_connection_and_keeps_its_order(stack, to_thread_calls):
    workload, gate, server, net = stack(shards=2, queue_capacity=2)
    # Tops on the plug's shard, and a statement no key routes: a broadcast.
    sharded = server.sharded
    home = sharded.statement_shard(price_update(workload, 64, 0.0))
    other = 1 - home
    same = [
        top for top in range(1, 64)
        if sharded.statement_shard(price_update(workload, top, 0.0)) == home
    ][:6]
    assert len(same) == 6
    broadcast = UpdateStatement("leaf", {"price": 5.0}, where=lambda row: False)
    assert sharded.statement_shard(broadcast) is None

    async def scenario() -> None:
        producer = await NetClient.connect(*net.address)
        bystander = await NetClient.connect(*net.address)
        parked, go = gate.stop_at(workload.top_name(64))
        plug = asyncio.ensure_future(producer.execute(price_update(workload, 64, 900.0)))
        assert await asyncio.to_thread(parked.wait, 30)
        del to_thread_calls[:]
        burst = [
            asyncio.ensure_future(producer.execute(price_update(workload, top, 100.0 + i)))
            for i, top in enumerate(same)
        ]
        # Two fit the queue; the third waits for room on a worker thread,
        # and with it the connection: the rest is not even dispatched.
        await until(lambda: len(to_thread_calls) == 1, "the third submit waits for room")
        assert to_thread_calls == [server.submit]
        assert server.queue_depths[home] == 2
        submitted = [stats.submitted for stats in server.stats]
        # Another connection of the same loop is served meanwhile.
        await asyncio.wait_for(bystander.ping(), 10)
        # A broadcast needs a slot on both shards: with one full it takes none.
        assert server.try_submit(broadcast) is None
        assert [stats.submitted for stats in server.stats] == submitted
        assert server.queue_depths[other] == 0
        go.set()
        await asyncio.gather(plug, *burst)
        await asyncio.wait_for(bystander.ping(), 10)
        ticket = server.try_submit(broadcast)
        assert ticket is not None and len(ticket.result(30)) == 2
        await producer.close()
        await bystander.close()

    run(scenario())
    # Executed in the order the connection sent them.
    log = sharded.shards[home].statement_log
    prices = [result.inserted.mappings()[0]["price"] for result in log if result.rowcount == 1]
    assert prices[-6:] == [100.0 + i for i in range(6)]


def test_rest_and_tcp_submits_take_the_same_enqueue_path(stack, to_thread_calls):
    from repro.serving.web import WebClient, WebGateway

    workload, _gate, server, net = stack(shards=2)
    web = WebGateway(server).start()

    async def scenario() -> None:
        tcp = await NetClient.connect(*net.address)
        rest = await WebClient.connect(*web.address)
        submitted = sum(stats.submitted for stats in server.stats)
        del to_thread_calls[:]
        updates = [price_update(workload, top, 300.0 + top) for top in range(1, 9)]
        assert len(await tcp.execute(updates[0])) == 1
        assert len(await tcp.execute_batch(updates[1:4])) == 3
        assert len(await rest.submit(updates[4])) == 1
        assert len(await rest.submit_batch(updates[5:8])) == 3
        assert sum(stats.submitted for stats in server.stats) - submitted == 8
        assert to_thread_calls == []
        await tcp.close()
        await rest.close()

    try:
        run(scenario())
    finally:
        web.stop()


def test_two_thousand_pipelined_submits_never_overflow_a_client_that_reads(stack):
    """Admission is bounded by the reader, not by luck: the replies of a
    deep pipeline stay inside the session's out-queue (default send buffer)
    while the client is slow to read them — tiny socket buffers both ways,
    and a client that first writes for a second before it reads at all."""
    workload, _gate, server, net = stack(shards=2, write_buffer_limit=256)
    tops = workload.parameters.top_elements
    requests = 2000

    async def scenario() -> set:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, net.address)
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
        assert (await read_frame(reader))["type"] == "welcome"

        async def pipeline() -> None:
            for i in range(requests):
                statement = price_update(workload, 1 + i % tops, 400.0 + i)
                writer.write(encode_frame({
                    "type": "submit", "id": i, "statements": [statement_to_wire(statement)],
                }))
                await writer.drain()

        sending = asyncio.ensure_future(pipeline())
        await asyncio.sleep(1.0)
        answered = set()
        while len(answered) < requests:
            message = await asyncio.wait_for(read_frame(reader), 30)
            assert message["type"] == "result", message
            answered.add(message["id"])
        await sending
        writer.close()
        return answered

    assert asyncio.run(asyncio.wait_for(scenario(), 120)) == set(range(requests))
    report = net.net_report()
    assert report["overflow_closes"] == 0
    assert report["statements_submitted"] == requests
