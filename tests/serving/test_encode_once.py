"""One statement serializes each affected node once, whoever encodes it.

Section 5 of the paper computes an (OLD_NODE, NEW_NODE) pair once per
statement however many triggers watch the node; the layers behind
``core.activate`` must not undo that.  The outbox record, the TCP
``activation`` / ``activation_batch`` frames and the WebSocket JSON frames
all read the pair's text from one
:class:`~repro.xmlmodel.serialize.EncodedPair`, so with 8 sibling triggers
on a node and all three consumers attached, one UPDATE costs exactly two
calls of ``xmlmodel.serialize`` — not two per activation per encoder (48 at
the parent commit).  Counted, not timed, in the style of
``tests/core/test_hot_path_no_reparse.py``.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serving.net import NetClient, NetworkServer
from repro.serving.web import WebGateway, WsClient

from tests.serving.conftest import (
    SIBLINGS,
    load_sibling_durable,
    open_sibling_durable,
    price_update,
    sibling_hierarchy,
)

BATCH = 32


def test_each_distinct_node_is_serialized_once_per_statement(tmp_path, serialize_calls):
    calls = serialize_calls

    # The action blocks while ``hold`` is clear, which parks the (single)
    # shard worker inside a statement so the next BATCH submissions queue up
    # behind it and run as ONE micro-batch.
    hold = threading.Event()
    hold.set()
    entered = threading.Event()

    def collect(node) -> None:
        entered.set()
        assert hold.wait(30)

    workload = sibling_hierarchy()
    durable = open_sibling_durable(tmp_path, workload, shard_count=1, collect=collect)
    load_sibling_durable(durable, workload)
    inbox = durable.subscribe("inbox", capacity=4096)
    durable.start()
    # Room for every activation of the scenario: the plug's frame may still
    # be undrained when the batch's bundle arrives, and a full send buffer
    # pauses the subscription (the slow-consumer policy), ending the stream.
    room = SIBLINGS * (2 + BATCH)
    net = NetworkServer(durable, send_buffer=room).start()
    gateway = WebGateway(durable, send_buffer=room).start()

    async def scenario() -> None:
        loop = asyncio.get_running_loop()
        tcp = await NetClient.connect(*net.address)
        tcp_stream = await tcp.subscribe()
        ws = await WsClient.connect(*gateway.address)
        ws_stream = await ws.subscribe()

        async def everyone_receives(activations: int) -> None:
            for _ in range(activations):
                assert await tcp_stream.get(timeout=30) is not None
                assert await ws_stream.get(timeout=30) is not None
            await loop.run_in_executor(
                None, lambda: [inbox.get(timeout=30) for _ in range(activations)]
            )

        # One UPDATE: 8 sibling activations, three encoders, two nodes.
        await loop.run_in_executor(None, durable.execute, price_update(workload, 40, 901.0))
        await everyone_receives(SIBLINGS)
        assert calls["serialize"] == 2

        # A 32-statement micro-batch on 32 distinct nodes: two per statement.
        hold.clear()
        entered.clear()
        plug = durable.submit(price_update(workload, 41, 902.0))
        assert await loop.run_in_executor(None, entered.wait, 30)
        tickets = [
            durable.submit(price_update(workload, top, 903.0))
            for top in range(1, BATCH + 1)
        ]
        hold.set()
        for ticket in [plug, *tickets]:
            await loop.run_in_executor(None, ticket.result, 30)
        assert durable.server.stats[0].max_batch == BATCH
        await everyone_receives(SIBLINGS * (1 + BATCH))
        assert calls["serialize"] == 2 + 2 + 2 * BATCH

        await tcp.close()
        await ws.close()

    try:
        asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        # Nothing was acked, so snapshot() rewrites every outbox record —
        # from the text the pairs already hold.
        durable.snapshot()
        assert durable.durability_report()["outbox_pending"] == SIBLINGS * (2 + BATCH)
        assert calls["serialize"] == 2 + 2 + 2 * BATCH
    finally:
        hold.set()
        gateway.stop()
        net.stop()
        durable.close()
