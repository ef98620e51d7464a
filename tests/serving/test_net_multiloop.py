"""The multi-loop front end and activation frame batching.

Pins the PR-specific behaviors the generic wire tests do not: connection
placement across the loop group (both accept strategies), per-loop stats
reporting, frame batching under the count/byte/linger budgets, the
``activation_batch`` capability negotiation (an un-upgraded client keeps
getting single frames), and client-side ack coalescing with durable-cursor
semantics intact.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.persist import DurableServer
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

WATCH_ALL = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
)

HAS_REUSE_PORT = hasattr(socket, "SO_REUSEPORT")


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


# ----------------------------------------------------------------- placement


class TestLoopGroupPlacement:
    def test_handoff_fallback_deals_connections_round_robin(self):
        server = make_server()
        net = NetworkServer(server, loops=3, reuse_port=False).start()
        try:
            host, port = net.address

            async def scenario():
                clients = [await NetClient.connect(host, port) for _ in range(6)]
                for client in clients:
                    await client.ping()
                report = net.net_report()
                for client in clients:
                    await client.close()
                return report

            report = run(scenario())
            assert report["loops"] == 3
            assert report["reuse_port"] is False
            placement = [entry["connections"] for entry in report["per_loop"]]
            assert placement == [2, 2, 2]
            # Two of the six accepts were handed off loop 0 -> {1, 2} twice.
            assert report["handoffs"] == 4
        finally:
            net.stop()
            server.stop()

    @pytest.mark.skipif(not HAS_REUSE_PORT, reason="platform lacks SO_REUSEPORT")
    def test_reuse_port_group_serves_and_fans_out_across_loops(self):
        server = make_server()
        net = NetworkServer(server, loops=2).start()
        try:
            host, port = net.address

            async def scenario():
                clients = [await NetClient.connect(host, port) for _ in range(8)]
                subscriptions = [await c.subscribe() for c in clients]
                producer = await NetClient.connect(host, port)
                await producer.execute(
                    UpdateStatement("product", {"mfr": "LG"}, keys=[("P1",)])
                )
                # Every subscriber receives the activation no matter which
                # loop the kernel balanced its connection onto.
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
            assert report["reuse_port"] is True
            assert report["handoffs"] == 0
            assert sum(e["connections"] for e in report["per_loop"]) == 9
        finally:
            net.stop()
            server.stop()

    def test_per_loop_report_sums_to_the_aggregate(self):
        server = make_server()
        net = NetworkServer(server, loops=2, reuse_port=False).start()
        try:
            host, port = net.address

            async def scenario():
                clients = [await NetClient.connect(host, port) for _ in range(4)]
                for client in clients:
                    await client.subscribe()
                    await client.ping()
                report = net.net_report()
                for client in clients:
                    await client.close()
                return report

            report = run(scenario())
            per_loop = report["per_loop"]
            assert len(per_loop) == 2
            for key in (
                "connections",
                "subscriptions",
                "frames_sent",
                "bytes_sent",
                "subscriptions_paused",
                "shared_encode_hits",
            ):
                assert all(key in entry for entry in per_loop)
            for counter in ("frames_sent", "bytes_sent", "subscriptions_opened"):
                assert sum(e[counter] for e in per_loop) == report[counter]
            assert sum(e["subscriptions"] for e in per_loop) == 4
            assert report["bytes_sent"] > 0
        finally:
            net.stop()
            server.stop()


# ------------------------------------------------------------------- batching


class TestActivationBatching:
    def test_burst_coalesces_into_batch_frames(self):
        """A burst within the linger window arrives as batch frames.

        ``batch_eager_flush=False`` pins pure linger semantics: activations
        trickling in over separate delivery runs still coalesce as long as
        they land inside the linger window.
        """
        server = make_server()
        net = NetworkServer(
            server, batch_linger=0.2, batch_eager_flush=False
        ).start()
        try:
            host, port = net.address
            updates = 6

            async def scenario():
                client = await NetClient.connect(host, port)
                assert "activation_batch" in client.caps
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                # Individual submits: the columnar engine coalesces same-key
                # updates inside one batch statement, and this test needs six
                # distinct activations landing within the linger window.
                for i in range(updates):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"v{i}"}, keys=[("P1",)])
                    )
                received = []
                for _ in range(updates):
                    activation = await subscription.get(timeout=10)
                    assert activation is not None
                    received.append(activation)
                report = net.net_report()
                batches = client.batches_received
                await client.close()
                await producer.close()
                return received, report, batches

            received, report, batches = run(scenario())
            sequences = [a.sequence for a in received]
            assert sequences == sorted(sequences)  # order survives batching
            assert batches >= 1
            assert report["activation_batches_sent"] >= 1
            assert report["batched_activations_sent"] >= 2
            assert report["activations_sent"] == updates
        finally:
            net.stop()
            server.stop()

    def test_count_budget_flushes_exact_batches(self):
        """batch_max_count=2 with a long linger yields exactly 3 batches."""
        server = make_server()
        net = NetworkServer(
            server, batch_max_count=2, batch_linger=30.0, batch_eager_flush=False
        ).start()
        try:
            host, port = net.address
            updates = 6

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                for i in range(updates):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"c{i}"}, keys=[("P1",)])
                    )
                for _ in range(updates):
                    assert await subscription.get(timeout=10) is not None
                report = net.net_report()
                await client.close()
                await producer.close()
                return report, client.batches_received

            report, batches = run(scenario())
            # Without the count budget nothing would flush before the 30 s
            # linger; every frame was therefore a full batch of two.
            assert report["activation_batches_sent"] == updates // 2
            assert report["batched_activations_sent"] == updates
            assert batches == updates // 2
        finally:
            net.stop()
            server.stop()

    def test_eager_flush_batches_a_single_statement_burst(self):
        """Default mode: a multi-row statement's burst flushes as batches
        at the end of its delivery run — no linger latency, and at least
        one multi-activation frame for the shard holding several keys."""
        server = make_server()
        net = NetworkServer(server).start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                # P5 routes to the same shard as P1 but carries a distinct
                # pname, so one statement touching both updates two catalog
                # nodes: two activations in a single delivery run, flushed
                # as one batch.  It needs two vendors to clear the view's
                # min_vendors bar, and the inserts themselves fire nothing —
                # the trigger only watches updates.
                await producer.execute(
                    InsertStatement(
                        "product",
                        [{"pid": "P5", "pname": "OLED 27", "mfr": "LG"}],
                    )
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
                # Whether both activations share one delivery run depends on
                # thread scheduling, so repeat the burst until a batch frame
                # shows up (bounded; one run is usually enough).
                received = 0
                for attempt in range(20):
                    await producer.execute(
                        UpdateStatement(
                            "product",
                            {"mfr": f"burst-{attempt}"},
                            keys=[("P1",), ("P5",)],
                        )
                    )
                    for _ in range(2):
                        activation = await subscription.get(timeout=10)
                        assert activation is not None
                        received += 1
                    if client.batches_received:
                        break
                batches = client.batches_received
                await client.close()
                await producer.close()
                return received, batches

            received, batches = run(scenario())
            assert received >= 2 and received % 2 == 0
            assert batches >= 1
        finally:
            net.stop()
            server.stop()

    def test_tiny_byte_budget_degrades_to_single_frames(self):
        """A byte budget below one activation never builds a multi-frame."""
        server = make_server()
        net = NetworkServer(
            server, batch_max_bytes=1, batch_linger=0.2, batch_eager_flush=False
        ).start()
        try:
            host, port = net.address
            updates = 4

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port)
                for i in range(updates):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"b{i}"}, keys=[("P1",)])
                    )
                for _ in range(updates):
                    assert await subscription.get(timeout=10) is not None
                report = net.net_report()
                await client.close()
                await producer.close()
                return report, client.batches_received

            report, batches = run(scenario())
            assert report["activation_batches_sent"] == 0
            assert batches == 0
            assert report["activations_sent"] == updates
        finally:
            net.stop()
            server.stop()

    def test_un_upgraded_client_still_gets_every_activation_single_framed(self):
        """caps=() negotiates nothing: zero behavior change for old clients."""
        server = make_server()
        net = NetworkServer(server, batch_linger=0.2).start()
        try:
            host, port = net.address
            updates = 6

            async def scenario():
                client = await NetClient.connect(host, port, caps=())
                assert client.caps == frozenset()
                subscription = await client.subscribe()
                producer = await NetClient.connect(host, port, caps=())
                for i in range(updates):
                    await producer.execute(
                        UpdateStatement("product", {"mfr": f"o{i}"}, keys=[("P1",)])
                    )
                received = []
                for _ in range(updates):
                    activation = await subscription.get(timeout=10)
                    assert activation is not None
                    received.append(activation)
                report = net.net_report()
                batches = client.batches_received
                await client.close()
                await producer.close()
                return received, report, batches

            received, report, batches = run(scenario())
            assert len(received) == updates
            assert batches == 0
            assert report["activation_batches_sent"] == 0
            assert report["activations_sent"] == updates
        finally:
            net.stop()
            server.stop()

    def test_server_side_batching_off_disables_the_capability(self):
        server = make_server()
        net = NetworkServer(server, batching=False).start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port)
                caps = set(client.caps)
                await client.close()
                return caps

            assert run(scenario()) == set()
        finally:
            net.stop()
            server.stop()


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
    def test_stats_frame_carries_per_loop_queue_and_durability_detail(
        self, tmp_path
    ):
        server = make_durable(tmp_path)
        net = NetworkServer(server, loops=2, reuse_port=False).start()
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
            assert net_stats["loops"] == 2
            assert len(net_stats["per_loop"]) == 2
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
