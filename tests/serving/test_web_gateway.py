"""Functional coverage of the HTTP + WebSocket gateway.

REST endpoints (submit single/batch, trigger DDL incl. bulk, stats, error
shapes), WebSocket subscription streams (filters, durable cursors, acks,
the slow-consumer pause), and the close-handshake edge cases the coverage
satellite calls out: mid-frame disconnect, ping/pong under load, and
ack-after-close.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import NetworkError
from repro.persist import DurableServer
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.serving.web import (
    GatewayError,
    WebClient,
    WebGateway,
    WsClient,
)
from repro.serving.web import wsproto
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

PRICE_WATCH = """
    CREATE TRIGGER PriceWatch AFTER UPDATE ON view('catalog')/product
    DO notify(NEW_NODE)
"""
NEW_PRODUCT = """
    CREATE TRIGGER NewProduct AFTER INSERT ON view('catalog')/product
    DO notify(NEW_NODE)
"""


@pytest.fixture
def live():
    """A non-durable serving stack behind a gateway."""
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.start()
    gateway = WebGateway(server).start()
    try:
        yield gateway
    finally:
        gateway.stop()
        server.stop()


@pytest.fixture
def durable_live():
    """A durable serving stack behind a gateway (cursors resumable)."""
    directory = Path(tempfile.mkdtemp(prefix="web-gateway-"))
    server = DurableServer(
        directory,
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
    server.start()
    gateway = WebGateway(server).start()
    try:
        yield gateway
    finally:
        gateway.stop()
        server.stop()
        server.close()
        shutil.rmtree(directory, ignore_errors=True)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _stalled_ws_connection(host: str, port: int):
    """Handshake, subscribe as ``stalled``, then stop reading the socket.

    The socket is built by hand with a tiny receive window so the gateway's
    ``drain()`` starts tracking the dead consumer almost immediately.
    """
    import base64 as b64
    import os as _os
    import socket as _socket

    raw = _socket.socket()
    raw.setsockopt(_socket.SOL_SOCKET, _socket.SO_RCVBUF, 4096)
    raw.setblocking(False)
    await asyncio.get_running_loop().sock_connect(raw, (host, port))
    # The tiny stream limit makes the transport stop pulling from the
    # socket almost immediately, so the backpressure reaches the gateway.
    reader, writer = await asyncio.open_connection(sock=raw, limit=1024)
    key = b64.b64encode(_os.urandom(16)).decode()
    writer.write(
        (
            f"GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")
    writer.write(
        wsproto.encode_frame(
            wsproto.OP_TEXT,
            json.dumps({"type": "subscribe", "id": 1,
                        "name": "stalled"}).encode(),
            mask=True,
        )
    )
    await writer.drain()
    # Read just the subscribed reply, then never touch the socket again.
    ws_reader = wsproto.WsReader(reader, require_mask=False)
    opcode, payload = await ws_reader.next_message()
    assert opcode == wsproto.OP_TEXT
    assert json.loads(payload)["type"] == "subscribed"
    return writer


# ------------------------------------------------------------------ REST


class TestRest:
    def test_submit_single_statement(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                await client.create_trigger(PRICE_WATCH)
                results = await client.submit(
                    UpdateStatement("vendor", {"price": 63.0},
                                    keys=[("Amazon", "P1")])
                )
                assert results[0]["table"] == "vendor"
                assert results[0]["event"] == "UPDATE"
                assert results[0]["rowcount"] == 1
                assert "fired" in results[0]

        run(scenario())

    def test_submit_batch_returns_per_statement_results(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                results = await client.submit_batch([
                    UpdateStatement("vendor", {"price": 101.0},
                                    keys=[("Amazon", "P1")]),
                    InsertStatement("product", [
                        {"pid": "P9", "pname": "OLED 55", "mfr": "LG"}
                    ]),
                ])
                assert len(results) == 2
                assert results[0][0]["rowcount"] == 1
                assert results[1][0]["event"] == "INSERT"

        run(scenario())

    def test_trigger_ddl_single_bulk_and_drop(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                name = await client.create_trigger(PRICE_WATCH)
                assert name == "PriceWatch"
                bulk = await client.register_triggers_bulk([NEW_PRODUCT])
                assert bulk == ["NewProduct"]
                await client.drop_trigger("NewProduct")
                # Dropping it again is an execution error, surfaced as 500.
                with pytest.raises(GatewayError):
                    await client.drop_trigger("NewProduct")

        run(scenario())

    def test_stats_reports_core_and_web_counters(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                stats = await client.stats()
                assert "evaluation" in stats
                assert len(stats["shards"]) == 2
                assert stats["web"]["requests_received"] >= 1
                assert "durability" not in stats

        run(scenario())

    def test_durable_stats_include_durability(self, durable_live):
        host, port = durable_live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                stats = await client.stats()
                assert "durability" in stats
                assert "cursors" in stats["durability"]

        run(scenario())

    def test_error_shapes(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                with pytest.raises(GatewayError) as excinfo:
                    await client.request("GET", "/nope")
                assert excinfo.value.status == 404
                with pytest.raises(GatewayError) as excinfo:
                    await client.request("POST", "/v1/submit", {"bogus": 1})
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    await client.request("POST", "/v1/triggers",
                                         {"source": 1})
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    await client.request(
                        "POST", "/v1/triggers",
                        {"source": "x", "sources": ["y"]},
                    )
                assert excinfo.value.status == 400
                # The keep-alive connection survived all those errors.
                stats = await client.stats()
                assert stats["web"]["requests_received"] >= 5

        run(scenario())


    def test_pending_submits_do_not_starve_other_requests(self, live):
        """In-flight submits park no executor thread (regression).

        As many submits as the default executor has threads wait behind one
        slow action; an unrelated DDL request — which needs a worker thread
        of that same executor — must still complete.
        """
        host, port = live.address
        release = threading.Event()
        live.core.register_action("block", lambda node: release.wait(30))
        pending = min(32, (os.cpu_count() or 1) + 4)

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(
                    "CREATE TRIGGER Slow AFTER UPDATE ON view('catalog')/product "
                    "DO block(NEW_NODE)"
                )
                clients = [
                    await WebClient.connect(host, port) for _ in range(pending)
                ]
                submits = [
                    asyncio.ensure_future(client.submit(
                        UpdateStatement("vendor", {"price": 50.0 + index},
                                        keys=[("Amazon", "P1")])
                    ))
                    for index, client in enumerate(clients)
                ]
                try:
                    while live.counters["statements_submitted"] < pending:
                        await asyncio.sleep(0.01)
                    assert not any(task.done() for task in submits)
                    name = await asyncio.wait_for(
                        admin.create_trigger(NEW_PRODUCT), timeout=10
                    )
                    assert name == "NewProduct"
                finally:
                    release.set()
                for results in await asyncio.gather(*submits):
                    assert results[0]["rowcount"] == 1
                for client in clients:
                    await client.close()

        run(scenario())

    def test_submit_still_pending_at_the_limit_is_a_500_and_the_timer_is_disarmed(
        self, live, monkeypatch
    ):
        """One timer on the ticket future: it expires a stuck submit with the
        limit's own words, and a submit that completes cancels it."""
        from repro.serving.web import gateway as gateway_module

        host, port = live.address
        release = threading.Event()
        live.core.register_action("block", lambda node: release.wait(30))
        monkeypatch.setattr(gateway_module, "_SUBMIT_TIMEOUT", 0.3)
        loop = live._runtimes[0].loop
        statement = UpdateStatement("vendor", {"price": 71.0}, keys=[("Amazon", "P1")])

        async def scenario():
            async with await WebClient.connect(host, port) as client:
                await client.create_trigger(
                    "CREATE TRIGGER Slow AFTER UPDATE ON view('catalog')/product "
                    "DO block(NEW_NODE)"
                )
                with pytest.raises(GatewayError) as refused:
                    await client.submit(statement)
                assert refused.value.status == 500
                assert "statement still pending after timeout" in str(refused.value)
                release.set()
                # The connection is still good, and a submit that completes
                # leaves no timer behind on the gateway's loop.
                live.core.drain()
                assert (await client.submit(statement))[0]["rowcount"] == 1
                await asyncio.sleep(0.05)
                assert not [h for h in loop._scheduled if not h.cancelled()]

        try:
            run(scenario())
        finally:
            release.set()

    def test_lifecycle_stop_with_idle_keep_alive_connections(
        self, live, capfd, caplog
    ):
        host, port = live.address
        idle = []
        for _ in range(3):
            raw = socket.create_connection((host, port), timeout=10)
            raw.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: h\r\n\r\n")
            assert raw.recv(65536).startswith(b"HTTP/1.1 200")
            idle.append(raw)  # keep-alive: parked in the next request read
        try:
            assert live.connection_count == 3
            live.stop()  # must not hang on, or complain about, the idle ones
            assert live.address is None
            live.stop()  # idempotent
            for raw in idle:
                assert raw.recv(1) == b""  # closed by the gateway
        finally:
            for raw in idle:
                raw.close()
        assert capfd.readouterr().err == ""
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        # The serving layer is untouched and restartable behind a new gateway.
        with WebGateway(live.core) as replacement:
            assert replacement.address is not None


# ------------------------------------------------------------------ WebSocket


class TestWebSocket:
    def test_filtered_subscription_delivers_matching_activations(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                async with await WsClient.connect(host, port) as ws:
                    sub = await ws.subscribe(view="catalog", path=["product"])
                    assert not sub.durable
                    await admin.submit(
                        UpdateStatement("vendor", {"price": 77.0},
                                        keys=[("Amazon", "P1")])
                    )
                    activation = await sub.get(timeout=10)
                    assert activation.trigger == "PriceWatch"
                    assert activation.view == "catalog"
                    assert activation.path[:1] == ("product",)
                    assert activation.new_node is not None

        run(scenario())

    def test_view_filter_excludes_other_views(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                async with await WsClient.connect(host, port) as ws:
                    sub = await ws.subscribe(view="not-the-catalog")
                    await admin.submit(
                        UpdateStatement("vendor", {"price": 78.0},
                                        keys=[("Amazon", "P1")])
                    )
                    with pytest.raises(asyncio.TimeoutError):
                        await sub.get(timeout=0.5)

        run(scenario())

    def test_cursor_without_durable_backend_is_refused(self, live):
        host, port = live.address

        async def scenario():
            async with await WsClient.connect(host, port) as ws:
                with pytest.raises(NetworkError, match="unsupported"):
                    await ws.subscribe("inbox", cursor={0: 1})

        run(scenario())

    def test_cursor_without_name_is_refused_even_durable(self, durable_live):
        host, port = durable_live.address

        async def scenario():
            async with await WsClient.connect(host, port) as ws:
                with pytest.raises(NetworkError, match="unsupported"):
                    await ws.subscribe(cursor={0: 1})

        run(scenario())

    def test_durable_resume_redelivers_unacked(self, durable_live):
        host, port = durable_live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                ws = await WsClient.connect(host, port)
                sub = await ws.subscribe("inbox")
                assert sub.durable
                for price in (61.0, 62.0, 63.0):
                    await admin.submit(
                        UpdateStatement("vendor", {"price": price},
                                        keys=[("Amazon", "P1")])
                    )
                consumed = [await sub.get(timeout=10) for _ in range(3)]
                await ws.ack(consumed[0])
                await ws.ping()  # flush the ack before dying
                ws._writer.transport.abort()  # crash, 2 unacked

                revived = await WsClient.connect(host, port)
                resumed = await revived.subscribe("inbox")
                redelivered = []
                while True:
                    try:
                        activation = await resumed.get(timeout=1.0)
                    except asyncio.TimeoutError:
                        break
                    if activation is None:
                        break
                    redelivered.append(activation)
                    await revived.ack(activation)
                unacked = {(a.shard, a.sequence) for a in consumed[1:]}
                assert unacked <= {
                    (a.shard, a.sequence) for a in redelivered
                }
                await revived.close()

        run(scenario())

    def test_client_cursor_fast_forwards_redelivery(self, durable_live):
        host, port = durable_live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                ws = await WsClient.connect(host, port)
                sub = await ws.subscribe("skipper")
                for price in (41.0, 42.0, 43.0):
                    await admin.submit(
                        UpdateStatement("vendor", {"price": price},
                                        keys=[("Amazon", "P1")])
                    )
                consumed = [await sub.get(timeout=10) for _ in range(3)]
                # Crash without acking anything over the wire…
                ws._writer.transport.abort()

                # …but resume presenting everything as the cursor: nothing
                # at or below those positions comes back.
                cursor: dict[int, int] = {}
                for a in consumed:
                    cursor[a.shard] = max(cursor.get(a.shard, 0), a.sequence)
                revived = await WsClient.connect(host, port)
                resumed = await revived.subscribe("skipper", cursor=cursor)
                with pytest.raises(asyncio.TimeoutError):
                    await resumed.get(timeout=0.5)
                await revived.close()

        run(scenario())

    def test_slow_consumer_is_paused_then_backlog_pages_via_resubscribe(
        self, durable_live
    ):
        durable_live.stop()
        durable = durable_live.durable
        gateway = WebGateway(
            durable, send_buffer=8, write_buffer_limit=4096
        ).start()
        statements = 60
        payload = "x" * 4096  # fat statements; frames stay view-sized
        try:
            host, port = gateway.address

            async def scenario():
                async with await WebClient.connect(host, port) as admin:
                    await admin.create_trigger(PRICE_WATCH)
                    # A consumer that handshakes, subscribes, then stops
                    # reading — a faithful model of a tab that went away.
                    writer = await _stalled_ws_connection(host, port)
                    for index in range(statements):
                        await admin.submit(
                            UpdateStatement(
                                "product", {"mfr": f"{payload}{index}"},
                                keys=[("P1",)],
                            )
                        )
                    # The subscription must flip to paused with at most
                    # send_buffer activations in flight — never 40.
                    deadline = asyncio.get_running_loop().time() + 10
                    while True:
                        report = gateway.web_report()
                        stalled = {
                            sub["name"]: sub
                            for sub in report["subscriptions"]
                        }.get("stalled")
                        if stalled is not None and stalled["paused"]:
                            break
                        assert (
                            asyncio.get_running_loop().time() < deadline
                        ), report
                        await asyncio.sleep(0.05)
                    assert stalled["buffered"] <= gateway.send_buffer
                    assert report["subscriptions_paused"] == 1
                    writer.transport.abort()

                    # A well-behaved consumer takes over the durable name
                    # and pages the backlog through the bounded buffer,
                    # re-subscribing with its cursor after each pause.
                    seen: set = set()
                    for _ in range(statements + 2):  # paging must terminate
                        ws = await WsClient.connect(host, port)
                        sub = await ws.subscribe("stalled")
                        while True:
                            try:
                                activation = await sub.get(timeout=2)
                            except asyncio.TimeoutError:
                                break
                            if activation is None:
                                break
                            seen.add((activation.shard, activation.sequence))
                            await ws.ack(activation)
                        paused = sub.paused
                        await ws.close()
                        if not paused:
                            break
                    assert len(seen) == statements

            run(scenario())
        finally:
            gateway.stop()

    def test_shared_frame_cache_one_encode_per_activation(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                clients = [await WsClient.connect(host, port) for _ in range(8)]
                subs = [await ws.subscribe() for ws in clients]
                await admin.submit(
                    UpdateStatement("vendor", {"price": 91.0},
                                    keys=[("Amazon", "P1")])
                )
                for sub in subs:
                    activation = await sub.get(timeout=10)
                    assert activation.trigger == "PriceWatch"
                for ws in clients:
                    await ws.close()

        run(scenario())
        report = live.web_report()
        assert report["shared_encode_misses"] == 1
        assert report["shared_encode_hits"] == 7


# ------------------------------------------------- close-handshake edge cases


class TestCloseHandshake:
    def test_clean_close_handshake(self, live):
        host, port = live.address

        async def scenario():
            ws = await WsClient.connect(host, port)
            await ws.subscribe()
            await ws.close()  # close frame → echoed close → EOF

        run(scenario())
        deadline = time.time() + 5
        while live.connection_count and time.time() < deadline:
            time.sleep(0.05)
        assert live.connection_count == 0

    def test_mid_frame_disconnect_is_a_clean_goodbye(self, live):
        host, port = live.address

        async def scenario():
            ws = await WsClient.connect(host, port)
            await ws.subscribe()
            # Half a masked TEXT frame, then vanish mid-frame.
            frame = wsproto.encode_frame(
                wsproto.OP_TEXT, json.dumps({"type": "ping"}).encode(),
                mask=True,
            )
            ws._writer.write(frame[: len(frame) // 2])
            await ws._writer.drain()
            ws._writer.transport.abort()

        run(scenario())
        deadline = time.time() + 5
        while live.connection_count and time.time() < deadline:
            time.sleep(0.05)
        assert live.connection_count == 0
        # A mid-frame disconnect is indistinguishable from a crash — it
        # must be a clean goodbye, not a protocol error.
        assert live.counters["protocol_errors"] == 0

    def test_ping_pong_under_load(self, live):
        host, port = live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                ws = await WsClient.connect(host, port)
                sub = await ws.subscribe()
                for i in range(20):
                    await admin.submit(
                        UpdateStatement("vendor", {"price": 60.0 + i},
                                        keys=[("Amazon", "P1")])
                    )
                # Interleave protocol- and JSON-level pings with the
                # streaming activations: control traffic always has queue
                # slack, so every ping answers promptly.
                for _ in range(5):
                    payload = await asyncio.wait_for(
                        ws.ws_ping(b"under-load"), timeout=5
                    )
                    assert payload == b"under-load"
                    await asyncio.wait_for(ws.ping(), timeout=5)
                received = 0
                while received < 20:
                    activation = await sub.get(timeout=10)
                    assert activation is not None
                    received += 1
                await ws.close()

        run(scenario())

    def test_ack_after_close_is_tolerated(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            import base64 as b64
            import os as _os

            key = b64.b64encode(_os.urandom(16)).decode()
            writer.write(
                (
                    f"GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\n"
                    f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
                    f"Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode()
            )
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            # Close first, then pipeline an ack *after* the close frame.
            writer.write(wsproto.encode_close(mask=True))
            writer.write(
                wsproto.encode_frame(
                    wsproto.OP_TEXT,
                    json.dumps({"type": "ack", "shard": 0, "seq": 1}).encode(),
                    mask=True,
                )
            )
            await writer.drain()
            # The gateway answers the close and shuts the connection down
            # without treating the stale ack as a protocol violation.
            data = await asyncio.wait_for(reader.read(), timeout=10)
            assert data  # at least the close reply
            writer.close()

        run(scenario())
        deadline = time.time() + 5
        while live.connection_count and time.time() < deadline:
            time.sleep(0.05)
        assert live.connection_count == 0

    def test_ack_with_no_subscription_is_ignored(self, live):
        host, port = live.address

        async def scenario():
            ws = await WsClient.connect(host, port)
            # No subscription exists: the ack has nothing to advance, and
            # per the ack-after-close contract it is dropped, not fatal.
            await ws.ack_position(0, 7)
            await ws.ping()  # the session is still alive and answering
            await ws.close()

        run(scenario())


# ---------------------------------- one session runtime, both transports


#: The two places the transports deliberately differ; everything else in
#: this section is one code path (``repro.serving.net.session.Session``).
BAD_INPUT = {"tcp": "bad-statement", "ws": "bad-request"}


@pytest.fixture(params=["tcp", "ws"])
def transport(request, durable_live):
    """``(kind, connect)`` — subscriber connections of either transport.

    The TCP front end goes in front of the *same* ``DurableServer`` the
    gateway fixture serves, so a case written once runs through the TCP
    connection and the WebSocket session alike; DML goes in over REST.
    """
    if request.param == "ws":
        yield "ws", lambda: WsClient.connect(*durable_live.address)
        return
    with NetworkServer(durable_live.durable) as net:
        yield "tcp", lambda: NetClient.connect(*net.address)


async def _subscribe_raw(client, **fields):
    """Send a subscribe request the typed clients would refuse to build."""
    if isinstance(client, NetClient):
        return await client._request({"type": "subscribe", **fields})
    client._next_id += 1
    reply = asyncio.get_running_loop().create_future()
    client._replies[client._next_id] = reply
    client._send_json({"type": "subscribe", "id": client._next_id, **fields})
    return await reply


async def _drain(subscription) -> list:
    received = []
    while True:
        try:
            activation = await subscription.get(timeout=1.0)
        except asyncio.TimeoutError:
            return received
        if activation is None:
            return received
        received.append(activation)


class TestSharedSessionRuntime:
    def test_cursor_beyond_head_is_refused_and_resume_loses_nothing(
        self, durable_live, transport
    ):
        kind, connect = transport
        host, port = durable_live.address

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                client = await connect()
                for cursor in ({0: 10**9, 1: 10**9}, {7: 0}):
                    with pytest.raises(NetworkError, match=BAD_INPUT[kind]):
                        await client.subscribe("inbox", cursor=cursor)
                # Nothing was persisted, and the connection is still good.
                assert "inbox" not in durable_live.durable.durability_report()[
                    "cursors"
                ]
                await client.subscribe("inbox")
                await client.close()

                for price in (31.0, 32.0, 33.0):  # fired while offline
                    await admin.submit(
                        UpdateStatement("vendor", {"price": price},
                                        keys=[("Amazon", "P1")])
                    )
                revived = await connect()
                redelivered = await _drain(await revived.subscribe("inbox"))
                assert len(redelivered) == 3
                await revived.close()

        run(scenario())

    def test_ack_beyond_head_is_counted_not_persisted(
        self, durable_live, transport
    ):
        _kind, connect = transport
        host, port = durable_live.address
        durable = durable_live.durable

        async def scenario():
            async with await WebClient.connect(host, port) as admin:
                await admin.create_trigger(PRICE_WATCH)
                client = await connect()
                subscription = await client.subscribe("inbox")
                await admin.submit(
                    UpdateStatement("vendor", {"price": 34.0},
                                    keys=[("Amazon", "P1")])
                )
                fired = await subscription.get(timeout=10)
                await client.ack_position(fired.shard, 10**9)
                await client.ack_position(7, 1)  # no such shard
                await client.ping()  # both acks are processed by now
                report = durable.durability_report()
                assert report["acks_refused"] == 2
                assert report["cursors"]["inbox"][fired.shard] < fired.sequence
                assert 7 not in report["cursors"]["inbox"]
                await client.close()

                # Not clamped either: the unacked activation comes back.
                revived = await connect()
                redelivered = await _drain(await revived.subscribe("inbox"))
                assert [(a.shard, a.sequence) for a in redelivered] == [
                    (fired.shard, fired.sequence)
                ]
                await revived.close()

        run(scenario())

    @pytest.mark.parametrize(
        "cursor", [[1, 2], "0:1", {"x": 1}, {0: "1"}, {0: None}]
    )
    def test_malformed_cursor_gets_the_bad_input_code(self, transport, cursor):
        kind, connect = transport

        async def scenario():
            client = await connect()
            with pytest.raises(NetworkError, match=BAD_INPUT[kind]) as excinfo:
                await _subscribe_raw(client, name="inbox", cursor=cursor)
            assert "cursor" in str(excinfo.value)
            assert "Error" not in str(excinfo.value)  # no leaked internals
            await client.ping()  # refused before any damage: still alive
            await client.close()

        run(scenario())
