"""The framing of delivery runs on the TCP front end.

Pins what the generic wire tests do not: one frame per delivery run —
where a run ends, how the byte budget and the row cap split one, and that
a run of one is the same node-table message, never split however large —
one encode of a run shared by every subscribed connection, client-side ack
coalescing with durable-cursor semantics intact, and the stats frame's
detail and counters, which survive a stop and start.
"""

from __future__ import annotations

import asyncio

from repro.persist import DurableServer
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer, SharedFrameCache
from repro.serving.net.protocol import (
    HEADER,
    MAX_BATCH_ACTIVATIONS,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    read_frame,
    run_from_wire,
)
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

WATCH_ALL = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
)


def run(coroutine):
    return asyncio.run(coroutine)


def make_server() -> ActiveViewServer:
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.create_trigger(WATCH_ALL)
    server.start()
    return server


def make_durable(tmp_path) -> DurableServer:
    server = DurableServer(
        tmp_path,
        shard_count=2,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"notify": lambda node: None},
    )
    reference = build_sharded_paper_database(1)
    for table in reference.table_names():
        server.sharded.create_table(reference.schema(table))
    snapshot = reference.snapshot()
    server.sharded.load_rows("product", snapshot["product"])
    server.sharded.load_rows("vendor", snapshot["vendor"])
    server.ensure_view(catalog_view())
    server.ensure_trigger(WATCH_ALL)
    server.start()
    return server


# ------------------------------------------------------------------ fan-out


def test_one_encode_serves_every_subscriber():
    server = make_server()
    net = NetworkServer(server).start()
    try:
        host, port = net.address

        async def scenario():
            clients = [await NetClient.connect(host, port) for _ in range(8)]
            subscriptions = [await c.subscribe() for c in clients]
            producer = await NetClient.connect(host, port)
            await producer.execute(
                UpdateStatement("product", {"mfr": "LG"}, keys=[("P1",)])
            )
            for subscription in subscriptions:
                activation = await subscription.get(timeout=10)
                assert activation is not None
                assert activation.trigger == "W"
            report = net.net_report()
            for client in clients:
                await client.close()
            await producer.close()
            return report

        report = run(scenario())
        assert report["connections_active"] == 9
        # One encode of the activation, shared by all eight subscriber
        # connections.
        assert report["shared_encode_misses"] == 1
        assert report["shared_encode_hits"] == 7
    finally:
        net.stop()
        server.stop()


# ------------------------------------------------------------------ run frames

TWO_NODES = [("P1",), ("P5",)]


async def add_second_node(producer: NetClient) -> None:
    """Give P1's shard a second catalog node.

    P5 routes to the same shard as P1 but carries a distinct pname, so one
    statement touching both updates two catalog nodes: two activations in
    one bundle, one delivery run.  It needs two vendors to clear the view's
    min_vendors bar, and the inserts themselves fire nothing — the trigger
    only watches updates.
    """
    await producer.execute(
        InsertStatement("product", [{"pid": "P5", "pname": "OLED 27", "mfr": "LG"}])
    )
    await producer.execute(
        InsertStatement(
            "vendor",
            [
                {"vid": "V8", "pid": "P5", "price": 300.0},
                {"vid": "V9", "pid": "P5", "price": 310.0},
            ],
        )
    )


def built_activation(sequence: int, shard: int = 0):
    (activation,) = run_from_wire({
        "nodes": [[None, f"<p>{sequence:04d}" + "x" * 96 + "</p>"]],
        "acts": [[shard, sequence, "t", "v", ["p"], "UPDATE", [sequence], 0]],
    })
    return activation


class TestRunFrames:
    def test_a_run_is_one_frame_and_the_next_statement_starts_the_next(self):
        """Run boundaries are micro-batch boundaries: what one statement
        fired leaves as one ``activation_batch`` the moment it is handed
        over, and nothing lingers for the statement after it."""
        server = make_server()
        net = NetworkServer(server).start()
        try:
            host, port = net.address
            rounds = 4

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                await add_second_node(producer)
                received = []
                for turn in range(rounds):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"run-{turn}"}, keys=TWO_NODES)
                    )
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"one-{turn}"}, keys=[("P1",)])
                    )
                    for _ in range(3):
                        activation = await subscription.get(timeout=10)
                        assert activation is not None
                        received.append(activation)
                    # Each awaited statement was framed before its reply:
                    # one node-table frame per statement, a run of one too.
                    assert client.batches_received == 2 * (turn + 1)
                report = net.net_report()
                await client.close()
                await producer.close()
                return received, report

            received, report = run(scenario())
            sequences = [a.sequence for a in received]
            assert sequences == sorted(sequences)  # order survives the framing
            assert report["activation_batches_sent"] == rounds
            assert report["batched_activations_sent"] == 2 * rounds
            assert report["activations_sent"] == 3 * rounds
        finally:
            net.stop()
            server.stop()

    def test_a_run_of_one_is_a_node_table_frame(self):
        """A peer that names no capabilities still gets a lone activation
        as ``activation_batch`` — the one delivery message — and the batch
        counters, which count frames carrying more than one, stay at 0."""
        server = make_server()
        net = NetworkServer(server).start()
        try:
            host, port = net.address

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
                writer.write(encode_frame({"type": "subscribe", "id": 1}))
                await writer.drain()
                assert (await read_frame(reader))["type"] == "welcome"
                assert (await read_frame(reader))["type"] == "subscribed"
                async with await NetClient.connect(host, port) as producer:
                    await producer.execute(
                        UpdateStatement("product", {"mfr": "LG"}, keys=[("P1",)])
                    )
                pushed = await asyncio.wait_for(read_frame(reader), timeout=10)
                writer.close()
                return pushed

            pushed = run(scenario())
            assert pushed["type"] == "activation_batch"
            (activation,) = run_from_wire(pushed)
            assert activation.trigger == "W" and activation.key == ("CRT 15",)
            report = net.net_report()
            assert report["activations_sent"] == 1
            assert report["activation_batches_sent"] == 0
            assert report["batched_activations_sent"] == 0
        finally:
            net.stop()
            server.stop()

    def test_a_run_over_the_byte_budget_degrades_to_smaller_frames(self):
        """A frame budget below one activation sends each as its own frame."""
        server = make_server()
        net = NetworkServer(server).start()
        net.frame_cache = SharedFrameCache(max_frame=2)
        try:
            host, port = net.address
            rounds = 3

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                await add_second_node(producer)
                keys = []
                for turn in range(rounds):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"b{turn}"}, keys=TWO_NODES)
                    )
                    for _ in range(2):
                        activation = await subscription.get(timeout=10)
                        assert activation is not None
                        keys.append((activation.sequence, activation.key))
                report = net.net_report()
                await client.close()
                await producer.close()
                return keys, report, client.batches_received

            keys, report, batches = run(scenario())
            assert keys == sorted(keys) and len(keys) == 2 * rounds
            assert report["activation_batches_sent"] == 0  # no frame carries two
            assert batches == 2 * rounds
            assert report["activations_sent"] == 2 * rounds
        finally:
            net.stop()
            server.stop()

    def test_the_byte_budget_halves_a_run_until_every_frame_fits(self):
        run_of = [built_activation(sequence) for sequence in range(1, 14)]
        whole = SharedFrameCache().encode_run(run_of)[0]
        assert [count for _frame, count in whole] == [13]
        limit = len(whole[0][0]) // 3
        frames, hit = SharedFrameCache(max_frame=2 * limit).encode_run(run_of)
        assert not hit and len(frames) > 2
        assert all(len(frame) <= limit for frame, _count in frames)
        assert sum(count for _frame, count in frames) == 13
        decoded = []
        for frame, count in frames:
            message = decode_payload(frame[HEADER.size:])
            assert message["type"] == "activation_batch"
            part = run_from_wire(message)
            assert len(part) == count
            decoded += part
        assert decoded == run_of

    def test_one_activation_over_the_byte_budget_leaves_whole(self):
        (lone,) = run_of = [built_activation(1)]
        frames, _hit = SharedFrameCache(max_frame=2).encode_run(run_of)
        assert [count for _frame, count in frames] == [1]
        message = decode_payload(frames[0][0][HEADER.size:])
        assert message["type"] == "activation_batch"
        assert run_from_wire(message) == [lone]

    def test_a_run_beyond_the_row_cap_is_split_before_it_is_encoded(self):
        run_of = [built_activation(sequence) for sequence in range(MAX_BATCH_ACTIVATIONS + 2)]
        frames, _hit = SharedFrameCache().encode_run(run_of)
        assert [count for _frame, count in frames] == [
            MAX_BATCH_ACTIVATIONS // 2 + 1, MAX_BATCH_ACTIVATIONS // 2 + 1
        ]


# ------------------------------------------------------------- ack coalescing


class TestAckCoalescing:
    def test_burst_of_acks_collapses_to_one_frame_per_shard(self, tmp_path):
        server = make_durable(tmp_path)
        net = NetworkServer(server).start()
        try:
            host, port = net.address
            updates = 6

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("inbox")
                producer = await NetClient.connect(host, port)
                for i in range(updates):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"a{i}"}, keys=[("P1",)])
                    )
                received = []
                for _ in range(updates):
                    activation = await subscription.get(timeout=10)
                    assert activation is not None
                    received.append(activation)
                # Ack the whole burst back to back — nothing yields between
                # the calls, so they coalesce to the shard's highest
                # position, flushed (before the ping, on the wire) as ONE
                # ack frame.
                for activation in received:
                    await client.ack(activation)
                await client.ping()
                sent, coalesced = client.acks_sent, client.acks_coalesced
                await client.close()
                await producer.close()
                return sent, coalesced

            sent, coalesced = run(scenario())
            assert sent == 1  # one shard: P1's updates all land together
            assert coalesced == updates - 1

            async def resume():
                # The coalesced ack advanced the durable cursor to the tail:
                # nothing is redelivered under the same name.
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("inbox")
                try:
                    await subscription.get(timeout=0.3)
                    raise AssertionError("acked activation was redelivered")
                except asyncio.TimeoutError:
                    pass
                await client.close()

            run(resume())
        finally:
            net.stop()
            server.stop()

    def test_close_flushes_pending_acks(self, tmp_path):
        server = make_durable(tmp_path)
        net = NetworkServer(server).start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("inbox")
                producer = await NetClient.connect(host, port)
                await producer.execute(
                    UpdateStatement("product", {"mfr": "LG"}, keys=[("P1",)])
                )
                activation = await subscription.get(timeout=10)
                await client.ack(activation)
                # No ping, no flush barrier: close() itself must not lose
                # the pending ack.
                await client.close()
                assert client.acks_sent == 1
                await producer.close()

            run(scenario())
            server.drain()

            async def resume():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("inbox")
                try:
                    await subscription.get(timeout=0.3)
                    raise AssertionError("ack lost on close: redelivery happened")
                except asyncio.TimeoutError:
                    pass
                await client.close()

            run(resume())
        finally:
            net.stop()
            server.stop()


# ------------------------------------------------------------------ the stats


class TestStatsPlumbing:
    def test_stats_frame_carries_wake_queue_and_durability_detail(self, tmp_path):
        server = make_durable(tmp_path)
        net = NetworkServer(server).start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("watcher")
                producer = await NetClient.connect(host, port)
                await producer.execute(
                    UpdateStatement("product", {"mfr": "LG"}, keys=[("P1",)])
                )
                activation = await subscription.get(timeout=10)
                await client.ack(activation)
                await client.ping()
                stats = await client.stats()
                await client.close()
                await producer.close()
                return stats, activation

            stats, activation = run(scenario())
            assert stats["queues"] == [0, 0] or all(
                depth >= 0 for depth in stats["queues"]
            )
            assert len(stats["queues"]) == 2
            net_stats = stats["net"]
            assert net_stats["wake_posts"] > 0
            assert net_stats["per_loop"] == [{
                "wake_posts": net_stats["wake_posts"],
                "wake_wakeups": net_stats["wake_wakeups"],
            }]
            assert any(
                sub["name"] == "watcher" for sub in net_stats["subscriptions"]
            )
            durability = stats["durability"]
            # "pending" means unacked by someone: the only subscriber acked.
            assert durability["outbox_pending"] == 0
            cursor = durability["cursors"]["watcher"]
            assert cursor[activation.shard] == activation.sequence
        finally:
            net.stop()
            server.stop()

    def test_counters_keep_counting_across_stop_and_start(self):
        """The front end's counters live on it, not on a running loop: a
        stop and a fresh start add to them instead of starting over."""
        server = make_server()
        net = NetworkServer(server).start()
        try:

            async def one_delivery(mfr: str) -> None:
                host, port = net.address
                async with await NetClient.connect(host, port) as client:
                    subscription = await client.subscribe()
                    async with await NetClient.connect(host, port) as producer:
                        await producer.execute(
                            UpdateStatement("product", {"mfr": mfr}, keys=[("P1",)])
                        )
                    activation = await subscription.get(timeout=10)
                    assert activation is not None and activation.trigger == "W"

            run(one_delivery("LG"))
            first = net.net_report()
            net.stop()
            net.start()
            run(one_delivery("Sony"))
            second = net.net_report()
            assert first["activations_sent"] == 1
            assert second["activations_sent"] == 2
            assert second["connections_opened"] == 2 * first["connections_opened"] == 4
        finally:
            net.stop()
            server.stop()
