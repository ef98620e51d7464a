"""Property: WebSocket delivery ≡ the in-process subscriber oracle.

The web twin of ``test_property_net_equivalence.py``: statements go in over
the HTTP REST surface (:class:`repro.serving.web.WebClient`), activations
come back over a WebSocket subscription (:class:`repro.serving.web.WsClient`)
— including one that is **killed mid-stream and resumes from its durable
cursor** over a fresh connection.  The stream must deliver:

* exactly the oracle's activation set once deduplicated by
  ``(shard, sequence)`` (at-least-once: duplicates are allowed only as
  cursor-window redeliveries, losses never),
* every oracle activation at least once (nothing silently dropped, no
  silent fallback to a weaker delivery mode — the subscription must report
  itself durable),
* in per-shard sequence order within every connection session.

The oracle is the in-process :class:`repro.serving.Subscriber` attached to
the *same* durable server, so the comparison isolates precisely the web
path: HTTP parsing, JSON activation encoding, RFC 6455 framing, the
thread↔asyncio bridge, cursor persistence, and resume.  Statements posted
as one batch form micro-batches, whose delivery runs arrive as one
``activations`` node-table message; the comparison includes both node
texts and also runs with a byte budget that splits every run, with
server-side filters that keep a subset of a bundle, and with a send buffer
that takes only a prefix of one.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.persist import DurableServer
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.serving.web import JsonFrameCache, WebClient, WebGateway, WsClient
from repro.xqgm.views import catalog_view

from tests.property.test_property_net_equivalence import (
    OUTLET_TRIGGERS,
    _assert_per_shard_order,
    _outlet_view,
)
from tests.serving.conftest import build_sharded_paper_database, by_product

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))

TRIGGERS = [
    "CREATE TRIGGER UpdAny AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]

_PIDS = ["P1", "P2", "P3"]
_VIDS = ["Amazon", "Bestbuy", "Circuitcity", "Buy.com", "Newegg", "Walmart"]

_actions = st.one_of(
    st.builds(
        lambda vid, pid, price: ("insert_vendor", vid, pid, price),
        st.sampled_from(_VIDS), st.sampled_from(_PIDS), st.integers(10, 300),
    ),
    st.builds(
        lambda vid, pid, price: ("update_price", vid, pid, price),
        st.sampled_from(_VIDS), st.sampled_from(_PIDS), st.integers(10, 300),
    ),
    st.builds(lambda vid, pid: ("delete_vendor", vid, pid),
              st.sampled_from(_VIDS), st.sampled_from(_PIDS)),
)

_INITIAL = {("Amazon", "P1"), ("Bestbuy", "P1"), ("Circuitcity", "P1"),
            ("Buy.com", "P2"), ("Bestbuy", "P2"), ("Bestbuy", "P3"),
            ("Circuitcity", "P3")}


def _to_statement(action, existing: set):
    """Wire-expressible statement for an action (None if PK would collide)."""
    kind = action[0]
    if kind == "insert_vendor":
        _, vid, pid, price = action
        if (vid, pid) in existing:
            return None
        existing.add((vid, pid))
        return InsertStatement(
            "vendor", [{"vid": vid, "pid": pid, "price": float(price)}]
        )
    if kind == "update_price":
        _, vid, pid, price = action
        return UpdateStatement("vendor", {"price": float(price)}, keys=[(vid, pid)])
    _, vid, pid = action
    existing.discard((vid, pid))
    return DeleteStatement("vendor", keys=[(vid, pid)])


def _signature(activation):
    return (
        activation.shard,
        activation.sequence,
        activation.trigger,
        activation.view,
        activation.path,
        activation.event.value,
        activation.key,
        activation.encoded.old_text,
        activation.encoded.new_text,
    )


def _open_stack(directory: Path, outlet: bool = False):
    views = [catalog_view()] + ([_outlet_view()] if outlet else [])
    server = DurableServer(
        directory,
        shard_count=2,
        key_fn=by_product,
        views=views,
        actions={"sink": lambda value: None},
    )
    reference = build_sharded_paper_database(1)
    for table in reference.table_names():
        server.sharded.create_table(reference.schema(table))
    snapshot = reference.snapshot()
    server.sharded.load_rows("product", snapshot["product"])
    server.sharded.load_rows("vendor", snapshot["vendor"])
    for view in views:
        server.ensure_view(view)
    for definition in TRIGGERS + (OUTLET_TRIGGERS if outlet else []):
        server.ensure_trigger(definition)
    return server


async def _post(host, port, actions, batched: bool) -> None:
    """DML goes in over the REST surface — a different connection entirely.

    One statement per request, or all of them as one ``submit-batch``:
    enqueued back to back, they run as micro-batches and what those fire
    leaves as node-table messages.
    """
    existing = set(_INITIAL)
    statements = [
        s for s in (_to_statement(action, existing) for action in actions) if s is not None
    ]
    async with await WebClient.connect(host, port) as rest:
        if batched and statements:
            assert len(await rest.submit_batch(statements)) == len(statements)
        else:
            for statement in statements:
                await rest.submit(statement)


async def _consume_session(
    ws, subscription, *, stop_after=None, ack_upto=None
) -> list:
    """Consume (and ack a prefix of) one WebSocket session's stream.

    Stops at ``stop_after`` activations, or when the stream runs dry for
    300 ms.  ``ack_upto=None`` acks everything consumed.
    """
    consumed = []
    while stop_after is None or len(consumed) < stop_after:
        try:
            activation = await subscription.get(timeout=0.3)
        except asyncio.TimeoutError:
            break
        if activation is None:
            break
        consumed.append(activation)
        if ack_upto is None or len(consumed) <= ack_upto:
            await ws.ack(activation)
    return consumed


@pytest.mark.parametrize("split", [False, True], ids=["runs", "split"])
@settings(
    max_examples=min(_EXAMPLES, 30) // 2 + 1,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    actions=st.lists(_actions, min_size=1, max_size=10),
    kill_after=st.integers(0, 20),
    ack_prefix=st.integers(0, 20),
    batched=st.booleans(),
)
def test_web_delivery_with_kill_and_resume_matches_oracle(
    split, actions, kill_after, ack_prefix, batched
):
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir))
        oracle = server.subscribe("oracle", capacity=4096)
        gateway = WebGateway(server, send_buffer=4096)
        if split:
            # A byte budget no two activations fit: every run is split.
            gateway.frame_cache = JsonFrameCache(max_frame=2)
        server.start()
        gateway.start()
        try:
            host, port = gateway.address
            sessions = asyncio.run(
                _scenario(host, port, actions, kill_after, ack_prefix, batched)
            )
            report = gateway.web_report()
        finally:
            gateway.stop()
            server.stop()
        if split:
            assert report["activation_batches_sent"] == 0

        oracle_signatures = Counter(_signature(a) for a in oracle.drain())
        all_consumed = [a for session in sessions for a in session]
        web_signatures = Counter(_signature(a) for a in all_consumed)

        # Deduplicated, the WebSocket stream is *exactly* the oracle stream.
        assert set(web_signatures) == set(oracle_signatures), (
            "web delivery diverged from the in-process oracle"
        )
        # The oracle saw each activation exactly once; the web path may
        # repeat one (redelivery window) but must never invent one.
        assert all(count == 1 for count in oracle_signatures.values())

        # Per-shard (and therefore per-node) order within every session.
        for session in sessions:
            _assert_per_shard_order(session)


async def _scenario(host, port, actions, kill_after, ack_prefix, batched):
    sessions: list[list] = []

    ws = await WsClient.connect(host, port)
    subscription = await ws.subscribe("consumer")
    assert subscription.durable, "silent fallback to a non-durable stream"
    await _post(host, port, actions, batched)

    # Session 1: consume part of the stream, ack only a prefix of that,
    # then die without so much as a goodbye.
    first = await _consume_session(
        ws, subscription, stop_after=kill_after, ack_upto=ack_prefix
    )
    sessions.append(first)
    acked = first[: min(ack_prefix, len(first))]
    if acked:
        await ws.ping()  # make sure the last ack frame reached the gateway
    ws._writer.transport.abort()  # the crash
    await ws.close()

    # Session 2 (post-crash): resume from the durable cursor and run dry.
    # Everything past the acked prefix must come back.
    revived = await WsClient.connect(host, port)
    resumed = await revived.subscribe("consumer")
    assert resumed.durable
    second = await _consume_session(revived, resumed)
    sessions.append(second)
    await revived.close()

    # At-least-once across the crash: every activation consumed-but-unacked
    # in session 1 appears again in session 2.
    unacked = {_signature(a) for a in first[len(acked):]}
    redelivered = {_signature(a) for a in second}
    assert unacked <= redelivered, "crash swallowed unacked activations"
    return sessions


@settings(
    max_examples=min(_EXAMPLES, 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(actions=st.lists(_actions, min_size=1, max_size=8))
def test_batch_endpoint_delivers_identically(actions):
    """POST /v1/submit-batch ≡ per-statement posts ≡ the oracle."""
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir))
        oracle = server.subscribe("oracle", capacity=4096)
        gateway = WebGateway(server, send_buffer=4096)
        server.start()
        gateway.start()
        try:
            host, port = gateway.address

            async def scenario():
                ws = await WsClient.connect(host, port)
                subscription = await ws.subscribe("batcher")
                existing = set(_INITIAL)
                statements = [
                    s for s in (_to_statement(a, existing) for a in actions)
                    if s is not None
                ]
                if statements:
                    async with await WebClient.connect(host, port) as rest:
                        results = await rest.submit_batch(statements)
                    assert len(results) == len(statements)
                consumed = await _consume_session(ws, subscription)
                await ws.close()
                return consumed

            consumed = asyncio.run(scenario())
        finally:
            gateway.stop()
            server.stop()

        oracle_signatures = Counter(_signature(a) for a in oracle.drain())
        web_signatures = Counter(_signature(a) for a in consumed)
        assert web_signatures == oracle_signatures


@settings(
    max_examples=min(_EXAMPLES, 10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    actions=st.lists(_actions, min_size=1, max_size=8),
    ack_count=st.integers(0, 16),
)
def test_client_supplied_cursor_matches_server_side_resume(actions, ack_count):
    """Resuming with an explicit client cursor ≡ resuming by name alone.

    A client that lost its connection but kept its own ack watermark may
    hand that cursor back on resubscribe; the gateway fast-forwards the
    durable cursor before attaching.  The resulting stream must be exactly
    what a name-only resume against the persisted cursor would deliver.
    """
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir))
        oracle = server.subscribe("oracle", capacity=4096)
        gateway = WebGateway(server, send_buffer=4096)
        server.start()
        gateway.start()
        try:
            host, port = gateway.address

            async def scenario():
                ws = await WsClient.connect(host, port)
                subscription = await ws.subscribe("wanderer")
                existing = set(_INITIAL)
                async with await WebClient.connect(host, port) as rest:
                    for action in actions:
                        statement = _to_statement(action, existing)
                        if statement is not None:
                            await rest.submit(statement)
                first = await _consume_session(
                    ws, subscription, stop_after=ack_count
                )
                cursor = dict(subscription.cursor)
                ws._writer.transport.abort()
                await ws.close()

                revived = await WsClient.connect(host, port)
                resumed = await revived.subscribe("wanderer", cursor=cursor)
                assert resumed.durable
                second = await _consume_session(revived, resumed)
                await revived.close()
                return first, second, cursor

            first, second, cursor = asyncio.run(scenario())
        finally:
            gateway.stop()
            server.stop()

        oracle_signatures = {_signature(a) for a in oracle.drain()}
        seen = {_signature(a) for a in first} | {_signature(a) for a in second}
        assert seen == oracle_signatures

        # Nothing at or below the handed-back cursor is redelivered.
        for activation in second:
            assert activation.sequence > cursor.get(activation.shard, 0)


@settings(
    max_examples=min(_EXAMPLES, 30),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    actions=st.lists(_actions, min_size=2, max_size=12),
    keep=st.sampled_from([
        {}, {"view": "outlet"}, {"view": "catalog"}, {"path": ["product"]},
        {"view": "outlet", "path": ["product"]}, {"path": ["vendor"]},
    ]),
    send_buffer=st.sampled_from([1, 2, 3, 5, 4096]),
)
def test_filtered_and_paused_streams_match_the_filtered_oracle(actions, keep, send_buffer):
    """A filter keeps a subset of each bundle; a small send buffer takes a
    prefix of what is left and pauses.  Acking and re-subscribing until the
    stream runs dry yields exactly the oracle's activations the filter keeps
    — each once, ``paused`` always the last word of its session."""
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir), outlet=True)
        oracle = server.subscribe("oracle", capacity=4096)
        gateway = WebGateway(server, send_buffer=send_buffer)
        server.start()
        gateway.start()
        try:
            host, port = gateway.address

            async def scenario():
                ws = await WsClient.connect(host, port)
                sessions, pauses = [], []
                subscription = await ws.subscribe("picky", **keep)
                await _post(host, port, actions, batched=True)
                while True:
                    session = await _consume_session(ws, subscription)
                    sessions.append(session)
                    if not subscription.paused:
                        break
                    pauses.append((subscription.sent_watermark, list(session)))
                    await ws.ping()  # the acks are in before the resume
                    subscription = await ws.subscribe("picky", **keep)
                await ws.close()
                return sessions, pauses

            sessions, pauses = asyncio.run(scenario())
            paused = gateway.web_report()["subscriptions_paused"]
        finally:
            gateway.stop()
            server.stop()

        def kept(activation) -> bool:
            return (
                keep.get("view", activation.view) == activation.view
                and activation.path[: len(keep.get("path", ()))] == tuple(keep.get("path", ()))
            )

        expected = Counter(_signature(a) for a in oracle.drain() if kept(a))
        consumed = Counter(_signature(a) for session in sessions for a in session)
        # Everything was acked before each resume: no loss, no repeat.
        assert consumed == expected
        assert paused == len(pauses)
        for session in sessions:
            _assert_per_shard_order(session)
        for sent, session in pauses:
            high: dict[int, int] = {}
            for activation in session:
                high[activation.shard] = max(high.get(activation.shard, 0), activation.sequence)
            assert sent == high
        if send_buffer == 4096:
            assert not pauses
