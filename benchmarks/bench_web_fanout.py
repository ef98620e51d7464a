"""Web gateway: WebSocket-connection-scale activation fan-out.

The web twin of ``bench_net_fanout.py``: one
:class:`~repro.serving.ActiveViewServer` (hierarchy workload, Figure
17-style triggers) behind a :class:`~repro.serving.web.WebGateway`;
``CONNECTIONS`` WebSocket subscribers attach, then a producer streams
conflict-free leaf updates over the REST surface.  Every run is
**equivalence-checked** against an in-process
:class:`~repro.serving.Subscriber` oracle attached to the same server:
every connection must receive exactly the oracle's activation sequence,
per shard, in order — delivery at scale, not best-effort sampling.

The interesting question versus the TCP front end is the cost of the web
packaging: JSON activation records inside RFC 6455 TEXT frames instead of
CRC-framed binary, with the :class:`~repro.serving.web.JsonFrameCache`
amortizing the encode to once per delivery run process-wide.  The headline
metric is the aggregate delivery rate (``ws_deliveries_per_s``), gated by
``tools/check_bench_regression.py``; the standalone run additionally
asserts the fan-out moved at least ``MIN_DELIVERIES`` activation
deliveries (the ≥1000-activation acceptance floor) and that the frame
cache did its job (one encode per delivery run, not per connection).

Run with pytest (scaled-down)::

    PYTHONPATH=src python -m pytest benchmarks/bench_web_fanout.py -q

or standalone for the full sweep::

    PYTHONPATH=src python -m benchmarks.bench_web_fanout
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

from repro.serving import Subscriber
from repro.serving.web import WebClient, WebGateway, WsClient
from repro.workloads import ExperimentHarness

from benchmarks.common import BENCH_DEFAULTS, BENCH_SCALE

#: A small trigger population: fan-out cost scales with *subscribers x
#: activations*, so the interesting axis is connection count, not triggers.
PARAMETERS = BENCH_DEFAULTS.with_(
    leaf_tuples=max(64, min(BENCH_DEFAULTS.leaf_tuples, 1_024)),
    num_triggers=20,
    satisfied_triggers=5,
)

#: Concurrent WebSocket subscriber connections for the standalone run.
CONNECTIONS = max(500, int(500 * BENCH_SCALE))

#: Producer statements streamed over REST.
UPDATES = 12

#: Upgrade handshakes in flight at once while building the population.
CONNECT_BATCH = 100

#: Acceptance floor: the recorded run must move at least this many
#: activation deliveries end to end (ISSUE: "≥1000-activation fan-out").
MIN_DELIVERIES = 1000


def build_stack() -> tuple:
    """A started server + web gateway running the hierarchy workload."""
    harness = ExperimentHarness(PARAMETERS)
    server, workload = harness.build_server(PARAMETERS, shard_count=2)
    oracle = Subscriber("oracle", capacity=65536)
    server.attach_subscriber(oracle)
    server.start()
    gateway = WebGateway(server, send_buffer=4096).start()
    return server, gateway, workload, oracle


async def _fan_out(host, port, statements, connections):
    """Connect, subscribe, produce, and consume; returns the measured run."""
    clients: list[WsClient] = []
    connect_started = time.perf_counter()
    for batch_start in range(0, connections, CONNECT_BATCH):
        batch = min(CONNECT_BATCH, connections - batch_start)
        clients.extend(
            await asyncio.gather(
                *(WsClient.connect(host, port) for _ in range(batch))
            )
        )
    subscriptions = []
    for batch_start in range(0, connections, CONNECT_BATCH):
        subscriptions.extend(
            await asyncio.gather(
                *(client.subscribe() for client in
                  clients[batch_start:batch_start + CONNECT_BATCH])
            )
        )
    connect_seconds = time.perf_counter() - connect_started

    producer = await WebClient.connect(host, port)
    produce_started = time.perf_counter()
    await producer.submit_batch(statements)

    async def consume(subscription, expected):
        received = []
        while len(received) < expected:
            activation = await subscription.get(timeout=120)
            assert activation is not None, "stream ended early (pause/close)"
            received.append(activation)
        return received

    # The server knows how many activations the workload produced; every
    # connection must receive exactly that many (checked in detail after).
    stats = await producer.stats()
    expected = stats["activations_published"]
    per_connection = await asyncio.gather(
        *(consume(subscription, expected) for subscription in subscriptions)
    )
    fanout_seconds = time.perf_counter() - produce_started

    for client in clients:
        await client.close()
    await producer.close()
    return connect_seconds, fanout_seconds, expected, per_connection


def run_fanout(connections: int) -> dict:
    """One measured fan-out point, equivalence-checked against the oracle."""
    server, gateway, workload, oracle = build_stack()
    try:
        statements = workload.client_streams(1, UPDATES)[0]
        host, port = gateway.address
        connect_seconds, fanout_seconds, expected, per_connection = asyncio.run(
            _fan_out(host, port, statements, connections)
        )
        server.drain()
        oracle_stream = oracle.drain()
        assert len(oracle_stream) == expected
        oracle_by_shard: dict[int, list[tuple]] = {}
        for activation in oracle_stream:
            oracle_by_shard.setdefault(activation.shard, []).append(
                (activation.sequence, activation.trigger, activation.key)
            )
        # Every connection's stream is the oracle's stream: same multiset,
        # same per-shard order.  (One violation anywhere fails the run.)
        oracle_counter = Counter(
            (a.shard, a.sequence, a.trigger) for a in oracle_stream
        )
        for received in per_connection:
            assert Counter(
                (a.shard, a.sequence, a.trigger) for a in received
            ) == oracle_counter, "a connection diverged from the oracle"
            by_shard: dict[int, list[tuple]] = {}
            for activation in received:
                by_shard.setdefault(activation.shard, []).append(
                    (activation.sequence, activation.trigger, activation.key)
                )
            assert by_shard == oracle_by_shard
        deliveries = expected * connections
        report = gateway.web_report()
        assert report["subscriptions_paused"] == 0, "fan-out paused a subscriber"
        # One JSON encode per delivery run, not per connection: the cache
        # misses once per run and hits for every other connection handed the
        # same one, so the encodes are a ~1/connections share of the
        # lookups (the slack covers connections whose wake-ups grouped a
        # shard's bundles differently).
        encodes = report["shared_encode_misses"]
        lookups = encodes + report["shared_encode_hits"]
        assert encodes <= expected
        assert encodes * connections <= 4 * lookups, (
            f"{encodes} encodes for {lookups} frame lookups over {connections} connections"
        )
        return {
            "connections": connections,
            "activations": expected,
            "deliveries": deliveries,
            "connect_per_s": round(connections / max(connect_seconds, 1e-9), 1),
            "fanout_seconds": round(fanout_seconds, 3),
            "ws_deliveries_per_s": round(
                deliveries / max(fanout_seconds, 1e-9), 1
            ),
            "ws_frames_sent": report["ws_frames_sent"],
            "frame_cache_hits": report["shared_encode_hits"],
            "frame_cache_misses": report["shared_encode_misses"],
        }
    finally:
        gateway.stop()
        server.stop()


def test_every_connection_receives_the_oracle_stream():
    """Scaled-down acceptance: full equivalence at 48 connections."""
    result = run_fanout(48)
    assert result["deliveries"] == result["activations"] * 48
    assert result["activations"] > 0
    assert result["frame_cache_hits"] > 0


def test_fanout_clears_the_delivery_floor():
    """Mid-scale stress point: ≥1000 deliveries through the gateway."""
    result = run_fanout(128)
    assert result["deliveries"] >= MIN_DELIVERIES


def main() -> None:  # pragma: no cover - CLI convenience
    from benchmarks.common import record_result

    result = run_fanout(CONNECTIONS)
    print(
        f"connections={result['connections']}  "
        f"activations={result['activations']}  "
        f"ws_frames={result['ws_frames_sent']}  "
        f"encodes={result['frame_cache_misses']}  "
        f"fan-out {result['ws_deliveries_per_s']:9.0f} deliveries/s"
    )
    print("equivalence vs in-process oracle: OK (every connection)")
    assert result["deliveries"] >= MIN_DELIVERIES, (
        f"fan-out too small: {result['deliveries']} < {MIN_DELIVERIES}"
    )
    print("trajectory:", record_result(
        "web_fanout", result,
        headline="ws_deliveries_per_s", higher_is_better=True,
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
