"""A serving process keeps what its configuration says, not what it has served.

Runs N and then 2N acknowledged statements through a two-shard
``DurableServer`` with an in-process named subscriber and one
``NetworkServer`` session (named, acking), and compares what the process
retains at the two points: the shard services' ``fired`` / ``action_calls``,
the shard databases' ``statement_log``, the durable outbox's in-memory
mirror and the front end's frame cache.  Windows are compared for equality,
byte and entry budgets for staying inside the budget.

The three bounds are module constants; the test shrinks them so a
tier-1-sized run crosses each of them many times.  ``REPRO_PROPERTY_EXAMPLES``
scales N (CI's soak step runs 10x the tier-1 size).
"""

from __future__ import annotations

import asyncio
import os

from repro.persist import durable as durable_module
from repro.persist.records import activation_from_record
from repro.serving import server as server_module
from repro.serving.net import NetClient, NetworkServer, SharedFrameCache

from tests.serving.conftest import (
    SIBLINGS,
    load_sibling_durable,
    open_sibling_durable,
    price_update,
    sibling_hierarchy,
)

STATEMENTS = 4 * int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))
WINDOW = 16
RECHECK = 32
FRAME_BUDGET = 64 * 1024


def test_retained_state_is_the_same_after_n_and_2n_statements(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "HISTORY_WINDOW", WINDOW)
    monkeypatch.setattr(durable_module, "PENDING_RECHECK", RECHECK)
    workload = sibling_hierarchy()
    tops = workload.parameters.top_elements
    durable = open_sibling_durable(tmp_path, workload, shard_count=2)
    load_sibling_durable(durable, workload)
    inbox = durable.subscribe("inbox", capacity=256)
    durable.start()
    net = NetworkServer(durable)
    net.frame_cache = SharedFrameCache(FRAME_BUDGET)
    net.start()

    def retained() -> dict:
        durable.drain()
        return {
            "fired": [len(service.fired) for service in durable.server.services],
            "action_calls": [
                len(service.action_calls) for service in durable.server.services
            ],
            "statement_log": [len(shard.statement_log) for shard in durable.sharded.shards],
            "outbox_pending": durable.durability_report()["outbox_pending"],
        }

    async def scenario() -> tuple[dict, dict]:
        loop = asyncio.get_running_loop()
        client = await NetClient.connect(*net.address)
        stream = await client.subscribe("wire")

        async def serve(first: int, count: int) -> None:
            for turn in range(first, first + count):
                statement = price_update(workload, 1 + turn % tops, 600.0 + turn)
                await loop.run_in_executor(None, durable.execute, statement)
                for _ in range(SIBLINGS):
                    await client.ack(await stream.get(timeout=30))
                    inbox.ack(inbox.get(timeout=30))
            await client.ping()  # every ack above has reached the server

        await serve(0, STATEMENTS)
        at_n = retained(), len(durable._pending), net.frame_cache.retained_bytes
        await serve(STATEMENTS, STATEMENTS)
        at_2n = retained(), len(durable._pending), net.frame_cache.retained_bytes
        assert net.net_report()["activations_sent"] == 2 * STATEMENTS * SIBLINGS
        await client.close()
        return at_n, at_2n

    try:
        at_n, at_2n = asyncio.run(asyncio.wait_for(scenario(), timeout=600))
    finally:
        net.stop()
        durable.close()

    # Windows: exactly full at N already, and no fuller at 2N.
    assert at_n[0] == at_2n[0] == {
        "fired": [WINDOW, WINDOW],
        "action_calls": [WINDOW, WINDOW],
        "statement_log": [WINDOW, WINDOW],
        "outbox_pending": 0,
    }
    # Budgets: the outbox mirror is re-checked before it reaches its mark,
    # the frame cache turned over many times and never outgrew its bytes.
    assert at_n[1] < RECHECK and at_2n[1] < RECHECK
    assert 0 < at_n[2] <= 2 * FRAME_BUDGET and 0 < at_2n[2] <= 2 * FRAME_BUDGET


def test_frame_cache_evicts_oldest_frames_by_bytes_and_re_encodes_on_return():
    def activation(sequence: int):
        return activation_from_record({
            "shard": 0, "sequence": sequence, "trigger": "t", "view": "v",
            "path": ["p"], "event": "UPDATE", "key": [sequence],
            "old": None, "new": "<p>" + "x" * 100 + "</p>",
        })

    cache = SharedFrameCache(1000)
    activations = [activation(sequence) for sequence in range(10, 22)]
    frames = [cache.run_frames([a]) for a in activations]
    size = len(frames[0][0][0][0])
    assert all(not hit and parts == [(parts[0][0], 1)] and len(parts[0][0]) == size
               for parts, hit in frames)
    assert cache.retained_bytes == (1000 // size) * size  # as many as fit, no more
    assert cache.run_frames(activations[-1:]) == (frames[-1][0], True)
    assert cache.run_frames(activations[:1]) == (frames[0][0], False)  # evicted: a miss
    run = activations[-3:]
    parts, hit = cache.run_frames(run)
    assert not hit and [count for _frame, count in parts] == [3]
    # An equal run — other list, other Activation objects — is the same entry.
    assert cache.run_frames([activation(a.sequence) for a in run]) == (parts, True)
    assert cache.retained_bytes <= 1000
