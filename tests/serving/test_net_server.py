"""Network front end: wire round-trips, cursors, and the slow-consumer policy.

The protocol-level abuse cases (garbage, torn frames, bad CRCs) live in
``test_net_protocol_fuzz.py``; the delivery-equivalence properties in
``tests/property/test_property_delivery.py``.  This module pins the
happy paths and the two regressions that keep connection-scale fan-out
honest: a stalled subscriber must not block anyone else, and its server-side
buffer must stay at the configured bound.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.errors import NetworkError
from repro.persist import DurableServer
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.serving.net.protocol import PROTOCOL_VERSION, encode_frame, read_frame
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

WATCH_ALL = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
)
CRT_ONLY = (
    "CREATE TRIGGER Crt AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
)


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def stack():
    """A started two-shard server + network front end (small send buffer)."""
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.start()
    net = NetworkServer(server, send_buffer=16).start()
    try:
        yield server, net
    finally:
        net.stop()
        server.stop()


@pytest.fixture
def durable_stack(tmp_path):
    """A started durable server + network front end with a small send buffer."""
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
    net = NetworkServer(
        server,
        send_buffer=8,
        write_buffer_limit=4096,
    ).start()
    try:
        yield server, net
    finally:
        net.stop()
        server.stop()


async def stalled_connection(host: str, port: int):
    """A connection that handshakes, subscribes, then stops reading.

    The socket is built by hand so the receive window is tiny and the
    asyncio stream stops pulling from the transport almost immediately —
    a faithful model of a consumer that went away without closing.
    """
    raw = socket.socket()
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    raw.setblocking(False)
    await asyncio.get_running_loop().sock_connect(raw, (host, port))
    reader, writer = await asyncio.open_connection(sock=raw, limit=1024)
    writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
    writer.write(encode_frame({"type": "subscribe", "id": 1, "name": "stalled"}))
    await writer.drain()
    assert (await read_frame(reader))["type"] == "welcome"
    assert (await read_frame(reader))["type"] == "subscribed"
    return reader, writer


# --------------------------------------------------------------------- basics


class TestWireBasics:
    def test_handshake_reports_shards_and_durability(self, stack):
        _, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                return dict(client.server_info)

        assert run(scenario()) == {"shards": 2, "durable": False}

    def test_the_front_end_runs_one_loop(self, stack):
        server, _ = stack
        NetworkServer(server, loops=1)
        with pytest.raises(NetworkError, match="loops must be 1"):
            NetworkServer(server, loops=2)

    def test_execute_round_trip_and_result_summary(self, stack):
        server, net = stack
        server.create_trigger(CRT_ONLY)
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                await client.ping()
                return await client.execute(
                    UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])
                )

        summaries = run(scenario())
        assert summaries == [
            {"table": "vendor", "event": "UPDATE", "rowcount": 1, "fired": []}
        ]
        assert server.activations_published == 1

    def test_batch_applies_in_order(self, stack):
        server, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                return await client.execute_batch(
                    [
                        InsertStatement(
                            "vendor", [{"vid": "Newegg", "pid": "P2", "price": 10.0}]
                        ),
                        UpdateStatement(
                            "vendor", {"price": 20.0}, keys=[("Newegg", "P2")]
                        ),
                        DeleteStatement("vendor", keys=[("Newegg", "P2")]),
                    ]
                )

        results = run(scenario())
        assert [parts[0]["rowcount"] for parts in results] == [1, 1, 1]
        assert all(
            "Newegg" not in repr(row) for row in server.sharded.snapshot()["vendor"]
        )

    def test_ddl_create_bulk_and_drop(self, stack):
        server, net = stack
        host, port = net.address
        sources = [
            f"CREATE TRIGGER T{i} AFTER UPDATE ON view('catalog')/product "
            "DO notify(NEW_NODE)"
            for i in range(3)
        ]

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                single = await client.create_trigger(CRT_ONLY)
                bulk = await client.register_triggers_bulk(sources)
                await client.drop_trigger("T1")
                return single, bulk

        single, bulk = run(scenario())
        assert single == "Crt"
        assert bulk == ["T0", "T1", "T2"]
        assert sorted(t.name for t in server.triggers) == ["Crt", "T0", "T2"]

    def test_subscription_streams_matching_activation(self, stack):
        server, net = stack
        server.create_trigger(CRT_ONLY)
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                subscription = await client.subscribe()
                await client.execute(
                    UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])
                )
                return await subscription.get(timeout=10)

        activation = run(scenario())
        assert activation.trigger == "Crt"
        assert activation.view == "catalog"
        assert activation.path == ("product",)
        assert activation.key == ("CRT 15",)
        assert activation.new_node is not None
        attributes = {a.name: a.value for a in activation.new_node.attributes}
        assert attributes["name"] == "CRT 15"

    def test_view_and_path_filters_apply_server_side(self, stack):
        server, net = stack
        server.create_trigger(WATCH_ALL.replace("'catalog'", "'catalog'"))
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                subscription = await client.subscribe(view="other-view")
                await client.execute(
                    UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])
                )
                await client.ping()  # server processed the statement
                with pytest.raises(asyncio.TimeoutError):
                    await subscription.get(timeout=0.3)
                return net.net_report()

        report = run(scenario())
        assert report["subscriptions"][0]["filtered"] >= 1

    def test_stats_round_trip(self, stack):
        server, net = stack
        server.create_trigger(CRT_ONLY)
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                await client.execute(
                    UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])
                )
                return await client.stats()

        stats = run(scenario())
        assert stats["activations_published"] == 1
        assert stats["net"]["statements_submitted"] == 1
        assert len(stats["shards"]) == 2
        assert all(
            set(shard) == {"submitted", "statements", "batches", "max_batch", "errors"}
            for shard in stats["shards"]
        )
        assert isinstance(stats["evaluation"], dict)

    def test_request_error_keeps_connection_usable(self, stack):
        _, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                with pytest.raises(NetworkError, match="no-such-table"):
                    await client.execute(
                        UpdateStatement("no-such-table", {"x": 1}, keys=[(1,)])
                    )
                # The failure was request-scoped: the connection still works.
                await client.ping()
                return await client.execute(
                    UpdateStatement("vendor", {"price": 9.0}, keys=[("Amazon", "P1")])
                )

        summaries = run(scenario())
        assert summaries[0]["rowcount"] == 1

    def test_callable_statements_are_rejected_client_side(self, stack):
        _, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                from repro.errors import ProtocolError

                with pytest.raises(ProtocolError, match="cannot cross the wire"):
                    await client.execute(
                        UpdateStatement(
                            "vendor", {"price": 1.0}, where=lambda row: True
                        )
                    )

        run(scenario())

    def test_cursor_without_durability_is_refused_not_ignored(self, stack):
        _, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                with pytest.raises(NetworkError, match="unsupported"):
                    await client.subscribe("named", cursor={0: 3})

        run(scenario())

    def test_second_subscription_is_refused(self, stack):
        _, net = stack
        host, port = net.address

        async def scenario():
            async with await NetClient.connect(host, port) as client:
                await client.subscribe()
                with pytest.raises(NetworkError, match="active subscription"):
                    await client.subscribe()

        run(scenario())

    def test_ack_before_subscribe_is_a_protocol_error(self, stack):
        """One of the two deliberate TCP/WebSocket differences.

        The gateway tolerates the same ack
        (``test_web_gateway.py::test_ack_with_no_subscription_is_ignored``).
        """
        _, net = stack
        host, port = net.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            writer.write(encode_frame({"type": "ack", "shard": 0, "seq": 1}))
            await writer.drain()
            assert (await read_frame(reader))["type"] == "welcome"
            error = await read_frame(reader)
            assert (error["type"], error["id"], error["code"]) == (
                "error", None, "protocol"
            )
            assert "ack without a subscription" in error["message"]
            assert await reader.read() == b""  # and the connection is cut
            writer.close()

        run(scenario())
        assert net.counters["protocol_errors"] == 1

    def test_lifecycle_stop_with_open_connections(self, stack):
        server, net = stack
        host, port = net.address

        async def connect_and_hold():
            client = await NetClient.connect(host, port)
            await client.subscribe()
            return client

        run(connect_and_hold())
        net.stop()  # must not hang on the open (now orphaned) connection
        assert net.address is None
        net.stop()  # idempotent
        # The serving layer is untouched and restartable behind a new front end.
        replacement = NetworkServer(server).start()
        try:
            assert replacement.address is not None
        finally:
            replacement.stop()


# -------------------------------------------------------------------- durable


class TestDurableCursors:
    def test_resume_after_reconnect_redelivers_only_unacked(self, durable_stack):
        _, net = durable_stack
        host, port = net.address

        async def scenario():
            first = await NetClient.connect(host, port)
            subscription = await first.subscribe("inbox")
            assert subscription.durable
            await first.execute(
                UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")])
            )
            await first.execute(
                UpdateStatement("vendor", {"price": 199.0}, keys=[("Buy.com", "P2")])
            )
            one = await subscription.get(timeout=10)
            two = await subscription.get(timeout=10)
            await first.ack(one)
            await first.ping()  # the ack frame is in; safe to "crash"
            await first.close()

            second = await NetClient.connect(host, port)
            resumed = await second.subscribe("inbox")
            redelivered = await resumed.get(timeout=10)
            assert (redelivered.shard, redelivered.sequence, redelivered.key) == (
                two.shard,
                two.sequence,
                two.key,
            )
            await second.ack(redelivered)
            await second.ping()
            await second.close()

            third = await NetClient.connect(host, port)
            drained = await third.subscribe("inbox")
            with pytest.raises(asyncio.TimeoutError):
                await drained.get(timeout=0.3)
            await third.close()

        run(scenario())

    def test_explicit_cursor_fast_forwards_past_backlog(self, durable_stack):
        _, net = durable_stack
        host, port = net.address

        async def scenario():
            producer = await NetClient.connect(host, port)
            await producer.execute(
                UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")])
            )
            await producer.execute(
                UpdateStatement("vendor", {"price": 199.0}, keys=[("Buy.com", "P2")])
            )
            consumer = await NetClient.connect(host, port)
            heads = (await producer.stats())["durability"]["accepted"]
            skipping = await consumer.subscribe("skipper", cursor=dict(heads))
            with pytest.raises(asyncio.TimeoutError):
                await skipping.get(timeout=0.3)
            await producer.close()
            await consumer.close()

        run(scenario())


# -------------------------------------------------------- slow-consumer policy


class TestSlowConsumerRegression:
    def test_stalled_subscriber_blocks_nobody_and_stays_bounded(
        self, durable_stack
    ):
        """The regression this PR exists to prevent.

        One subscriber stops reading its socket.  Shard workers and every
        other connection must keep flowing, the stalled subscription must
        flip to paused, and — the explicit bound — its server-side buffer
        must never exceed the configured ``send_buffer``.
        """
        _, net = durable_stack
        host, port = net.address
        statements = 60
        payload = "x" * 4096  # fat activations defeat kernel-buffer slack

        async def scenario():
            reader, writer = await stalled_connection(host, port)

            healthy = await NetClient.connect(host, port)
            healthy_sub = await healthy.subscribe("healthy")
            producer = await NetClient.connect(host, port)
            for index in range(statements):
                await producer.execute(
                    UpdateStatement(
                        "product", {"mfr": f"{payload}{index}"}, keys=[("P1",)]
                    )
                )
            # Shard workers were never blocked: the healthy subscriber
            # receives every activation while the stalled peer sits there.
            for _ in range(statements):
                assert await healthy_sub.get(timeout=10) is not None

            deadline = asyncio.get_running_loop().time() + 10
            while True:
                report = net.net_report()
                stalled = {
                    sub["name"]: sub for sub in report["subscriptions"]
                }.get("stalled")
                if stalled is not None and stalled["paused"]:
                    break
                assert asyncio.get_running_loop().time() < deadline, report
                await asyncio.sleep(0.05)

            # The explicit buffer bound: paused, with at most send_buffer
            # activations in flight toward the dead socket — not 60.
            assert stalled["buffered"] <= net.send_buffer
            assert stalled["delivered"] + stalled["refused"] <= statements + 1
            assert report["subscriptions_paused"] == 1

            # The stalled consumer wakes up: exactly what the server counted
            # as delivered before the pause arrives (nothing invented,
            # nothing dropped), then the pause notice ends the stream;
            # re-subscribing resumes the rest from the durable cursor.
            flushed = 0
            while True:
                frame = await asyncio.wait_for(read_frame(reader), timeout=10)
                if frame["type"] == "paused":
                    break
                assert frame["type"] == "activation_batch"
                flushed += len(frame["acts"])
            assert flushed == stalled["delivered"]
            assert flushed < statements  # the pause really cut the stream short

            await healthy.close()
            await producer.close()
            writer.close()

        run(scenario())

    def test_paused_backlog_pages_to_completion_via_resubscribe(
        self, durable_stack
    ):
        """A backlog larger than the send buffer drains in bounded pages."""
        _, net = durable_stack
        host, port = net.address
        statements = 40
        payload = "y" * 4096

        async def consume_until_pause(client, subscription, seen):
            while True:
                try:
                    activation = await subscription.get(timeout=2)
                except asyncio.TimeoutError:
                    return False  # stream is live and dry: fully caught up
                if activation is None:
                    return subscription.paused
                seen.add((activation.shard, activation.sequence))
                await client.ack(activation)

        async def scenario():
            reader, writer = await stalled_connection(host, port)
            producer = await NetClient.connect(host, port)
            for index in range(statements):
                await producer.execute(
                    UpdateStatement(
                        "product", {"mfr": f"{payload}{index}"}, keys=[("P1",)]
                    )
                )
            published = (await producer.stats())["activations_published"]
            assert published == statements
            writer.close()  # the stalled consumer is gone for good

            # A well-behaved consumer takes over the durable name and pages
            # the whole backlog through the bounded buffer, re-subscribing
            # after each pause.
            seen: set = set()
            for _ in range(statements + 2):  # paging must terminate
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("stalled")
                paused = await consume_until_pause(client, subscription, seen)
                await client.close()
                if not paused:
                    break
            assert len(seen) == statements
            await producer.close()

        run(scenario())
