"""Property: network delivery ≡ the in-process subscriber oracle, on both
transports.

For a random workload (the catalog alphabet of
:mod:`tests.property.differential`), a subscriber over TCP
(:class:`repro.serving.net.NetClient`) or over a WebSocket
(:class:`repro.serving.web.WsClient`, statements posted over REST) —
including one that is **killed mid-stream and resumes from its durable
cursor** over a fresh connection — must deliver:

* exactly the oracle's activation set once deduplicated by
  ``(shard, sequence)`` (at-least-once: duplicates are allowed only as
  cursor-window redeliveries, losses never), node texts included;
* every oracle activation at least once (nothing silently dropped, no
  silent fallback to a weaker delivery mode — the subscription must report
  itself durable);
* in per-shard sequence order within every connection session, which (a
  node's key pinning it to one shard) is per-node order.

The oracle is the in-process :class:`repro.serving.Subscriber` attached to
the *same* durable server, so the comparison isolates the network path:
framing, cursor persistence, and resume.  Both transports run on one
session runtime, so every case runs on both, with a byte budget that splits
every delivery run, with server-side filters that keep a subset of a
bundle, and with a send buffer that takes only a prefix of one.  One case
belongs to one transport: the client-supplied cursor of the WebSocket
subscription.
"""

from __future__ import annotations

import asyncio
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.persist import DurableServer
from repro.serving.net import NetClient, NetworkServer, SharedFrameCache
from repro.serving.web import JsonFrameCache, WebClient, WebGateway, WsClient
from repro.xqgm.views import ViewDefinition, catalog_view

from tests.property.differential import (
    EXAMPLES,
    budget,
    catalog_actions,
    catalog_sharded,
    catalog_steps,
)
from tests.serving.conftest import by_product

TRIGGERS = [
    "CREATE TRIGGER UpdAny AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]

#: A second view over the same tables (every product, however few its
#: vendors): a statement fires triggers of both views in one bundle, so a
#: subscription filtered by view keeps a subset of it.
OUTLET_TRIGGERS = [
    definition.replace("view('catalog')", "view('outlet')").replace("TRIGGER ", "TRIGGER Outlet")
    for definition in TRIGGERS
]


def _outlet_view() -> ViewDefinition:
    return ViewDefinition("outlet", "outlet", catalog_view(min_vendors=1).roots)


class _Tcp:
    """The wire protocol: one ``NetClient`` both executes and subscribes."""

    #: Examples per kill-and-resume case and per filtered case.
    kill_examples = max(3, min(EXAMPLES, 60) // 4)
    filtered_examples = max(3, min(EXAMPLES, 60) // 2)

    def front(self, server, send_buffer):
        return NetworkServer(server, send_buffer=send_buffer)

    def split(self, front) -> None:
        front.frame_cache = SharedFrameCache(max_frame=2)

    def report(self, front) -> dict:
        return front.net_report()

    async def consumer(self, host, port):
        return await NetClient.connect(host, port)

    async def submit(self, host, port, statements, batched, via=None) -> None:
        """Pipelined ``execute``s (or one batch frame) on ``via``, else on a
        producer connection of its own."""
        client = via or await NetClient.connect(host, port)
        if batched and statements:
            assert len(await client.execute_batch(statements)) == len(statements)
        else:
            await asyncio.gather(*(client.execute(statement) for statement in statements))
        if via is None:
            await client.close()


class _Ws:
    """The web gateway: REST statements, one WebSocket subscription."""

    kill_examples = min(EXAMPLES, 30) // 2 + 1
    filtered_examples = min(EXAMPLES, 30)

    def front(self, server, send_buffer):
        return WebGateway(server, send_buffer=send_buffer)

    def split(self, front) -> None:
        front.frame_cache = JsonFrameCache(max_frame=2)

    def report(self, front) -> dict:
        return front.web_report()

    async def consumer(self, host, port):
        return await WsClient.connect(host, port)

    async def submit(self, host, port, statements, batched, via=None) -> None:
        """One request per statement, or one ``submit-batch``."""
        async with await WebClient.connect(host, port) as rest:
            if batched and statements:
                assert len(await rest.submit_batch(statements)) == len(statements)
            else:
                for statement in statements:
                    await rest.submit(statement)


TCP, WS = _Tcp(), _Ws()


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


def _statements(actions) -> list:
    return [statement for step in catalog_steps(actions) for statement in step]


def _open_stack(directory: Path, outlet: bool = False):
    views = [catalog_view()] + ([_outlet_view()] if outlet else [])
    server = DurableServer(
        directory,
        shard_count=2,
        key_fn=by_product,
        views=views,
        actions={"sink": lambda value: None},
    )
    reference = catalog_sharded()
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


@contextmanager
def _serving(transport, *, outlet=False, send_buffer=4096, split=False):
    """``(front end, in-process oracle subscriber)`` over a durable server."""
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir), outlet)
        oracle = server.subscribe("oracle", capacity=4096)
        front = transport.front(server, send_buffer)
        if split:
            transport.split(front)
        server.start()
        front.start()
        try:
            yield front, oracle
        finally:
            front.stop()
            server.stop()


def _assert_per_shard_order(session) -> None:
    per_shard: dict[int, list[int]] = {}
    for activation in session:
        per_shard.setdefault(activation.shard, []).append(activation.sequence)
    for sequences in per_shard.values():
        assert sequences == sorted(sequences)


async def _consume_session(client, subscription, *, stop_after=None, ack_upto=None) -> list:
    """Consume (and ack a prefix of) one connection session's stream.

    Stops at ``stop_after`` activations, at the end of the stream, or when
    it runs dry for 300 ms — so an invented or repeated activation that
    trails the expected ones still arrives and fails the comparison.
    ``ack_upto=None`` acks everything consumed.
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
            await client.ack(activation)
    return consumed


def _kill_cases():
    for transport, name in ((TCP, "tcp"), (WS, "ws")):
        for shape in ("runs", "split"):
            yield pytest.param(transport, shape, id=f"{name}-{shape}")


#: One statement whose bundle fires two activations on one shard: a
#: delivery run of two, whatever the session seed draws.
_RENAME = [("rename_product", "Amazon", "P1", 1)]


@pytest.mark.parametrize("transport, shape", list(_kill_cases()))
def test_delivery_with_kill_and_resume_matches_oracle(transport, shape):
    """``runs`` is one node-table frame per delivery run, ``split`` the same
    under a byte budget no two activations fit."""
    check = given(
        actions=st.lists(catalog_actions(), min_size=1, max_size=10),
        kill_after=st.integers(0, 20),
        ack_prefix=st.integers(0, 20),
        batched=st.booleans(),
    )(_check_kill_and_resume)
    check = example(actions=_RENAME, kill_after=20, ack_prefix=0, batched=False)(check)
    budget(transport.kill_examples)(check)(transport, shape)


def _check_kill_and_resume(transport, shape, actions, kill_after, ack_prefix, batched):
    with _serving(transport, split=shape == "split") as (front, oracle):
        host, port = front.address
        sessions, delivered = asyncio.run(_kill_and_resume(
            transport, host, port, oracle, _statements(actions), kill_after, ack_prefix,
            batched,
        ))
        report = transport.report(front)
    if shape == "split":
        assert report["activation_batches_sent"] == 0

    oracle_signatures = Counter(_signature(a) for a in delivered)
    network_signatures = Counter(_signature(a) for session in sessions for a in session)
    # Deduplicated, the network stream is *exactly* the oracle stream.
    assert set(network_signatures) == set(oracle_signatures), (
        "network delivery diverged from the in-process oracle"
    )
    # The oracle saw each activation exactly once; the network path may
    # repeat one (redelivery window) but must never invent one.
    assert all(count == 1 for count in oracle_signatures.values())
    for session in sessions:
        _assert_per_shard_order(session)
    # The union above forgives an activation one session lost when the
    # other carried it, so each session is held to its own stream as well.
    first, second = sessions
    streams = _per_shard(delivered)
    # Session 1 reads a gapless prefix of every shard's stream.  (Where it
    # stopped is not checked: a 300 ms stall ends it early, and session 2
    # then carries the rest.)
    for shard, stream in _per_shard(first).items():
        assert stream == streams[shard][: len(stream)], f"shard {shard}: a gap in session 1"
    # Session 2 resumes right after the acked prefix: every shard's stream
    # past its highest acked sequence, nothing missing, nothing repeated.
    cursor: dict[int, int] = {}
    for activation in first[: min(ack_prefix, len(first))]:
        cursor[activation.shard] = max(cursor.get(activation.shard, 0), activation.sequence)
    resumed = {
        shard: [s for s in stream if s[1] > cursor.get(shard, 0)]
        for shard, stream in streams.items()
    }
    assert _per_shard(second) == {shard: s for shard, s in resumed.items() if s}, (
        "session 2 is not the stream past the acked cursor"
    )


def _per_shard(activations) -> dict[int, list]:
    """Signatures by shard, in the order they came."""
    streams: dict[int, list] = {}
    for activation in activations:
        streams.setdefault(activation.shard, []).append(_signature(activation))
    return streams


async def _kill_and_resume(
    transport, host, port, oracle, statements, kill_after, ack_prefix, batched
):
    client = await transport.consumer(host, port)
    subscription = await client.subscribe("consumer")
    assert subscription.durable, "silent fallback to a non-durable stream"
    await transport.submit(host, port, statements, batched, via=client)
    delivered = oracle.drain()

    # Session 1: consume part of the stream, ack only a prefix of that,
    # then die without so much as a goodbye.
    first = await _consume_session(
        client, subscription, stop_after=kill_after, ack_upto=ack_prefix
    )
    acked = first[: min(ack_prefix, len(first))]
    if acked:
        await client.ping()  # make sure the last ack frame reached the server
    client._writer.transport.abort()  # the crash
    await client.close()

    # Session 2 (post-crash): resume from the durable cursor and run dry.
    # Everything past the acked prefix must come back.
    revived = await transport.consumer(host, port)
    resumed = await revived.subscribe("consumer")
    assert resumed.durable
    second = await _consume_session(revived, resumed)
    await revived.close()

    # At-least-once across the crash: every activation consumed-but-unacked
    # in session 1 appears again in session 2.
    unacked = {_signature(a) for a in first[len(acked):]}
    assert unacked <= {_signature(a) for a in second}, "crash swallowed unacked activations"
    return [first, second], delivered


@pytest.mark.parametrize("transport", [TCP, WS], ids=["tcp", "ws"])
@budget(min(EXAMPLES, 10))
@given(actions=st.lists(catalog_actions(), min_size=1, max_size=8))
def test_batched_submission_delivers_identically(transport, actions):
    """One batch request ≡ per-statement requests ≡ the oracle."""
    with _serving(transport) as (front, oracle):
        host, port = front.address

        async def scenario():
            client = await transport.consumer(host, port)
            subscription = await client.subscribe("batcher")
            await transport.submit(host, port, _statements(actions), batched=True)
            delivered = oracle.drain()
            consumed = await _consume_session(client, subscription)
            await client.close()
            return consumed, delivered

        consumed, delivered = asyncio.run(scenario())
    assert Counter(_signature(a) for a in consumed) == Counter(_signature(a) for a in delivered)


@pytest.mark.parametrize("transport", [TCP, WS], ids=["tcp-runs", "ws"])
def test_filtered_and_paused_streams_match_the_filtered_oracle(transport):
    """A filter keeps a subset of each bundle; a small send buffer takes a
    prefix of what is left and pauses.  Acking and re-subscribing until the
    stream runs dry yields exactly the oracle's activations the filter keeps
    — each once, ``paused`` always the last word of its session."""
    budget(transport.filtered_examples)(given(
        actions=st.lists(catalog_actions(), min_size=2, max_size=12),
        keep=st.sampled_from([
            {}, {"view": "outlet"}, {"view": "catalog"}, {"path": ["product"]},
            {"view": "outlet", "path": ["product"]}, {"path": ["vendor"]},
        ]),
        send_buffer=st.sampled_from([1, 2, 3, 5, 4096]),
        batched=st.booleans(),
    )(_check_filtered))(transport)


def _check_filtered(transport, actions, keep, send_buffer, batched):
    def kept(activation) -> bool:
        return (
            keep.get("view", activation.view) == activation.view
            and activation.path[: len(keep.get("path", ()))] == tuple(keep.get("path", ()))
        )

    with _serving(transport, outlet=True, send_buffer=send_buffer) as (front, oracle):
        host, port = front.address

        async def scenario():
            client = await transport.consumer(host, port)
            sessions, pauses = [], []
            subscription = await client.subscribe("picky", **keep)
            await transport.submit(host, port, _statements(actions), batched)
            delivered = [a for a in oracle.drain() if kept(a)]
            while True:
                session = await _consume_session(client, subscription)
                sessions.append(session)
                if not subscription.paused:
                    break
                pauses.append((subscription.sent_watermark, list(session)))
                await client.ping()  # the acks are in before the resume
                subscription = await client.subscribe("picky", **keep)
            await client.close()
            return sessions, pauses, delivered

        sessions, pauses, delivered = asyncio.run(scenario())
        paused = transport.report(front)["subscriptions_paused"]

    expected = Counter(_signature(a) for a in delivered)
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


@budget(min(EXAMPLES, 10))
@given(
    actions=st.lists(catalog_actions(), min_size=1, max_size=8),
    ack_count=st.integers(0, 16),
)
def test_client_supplied_cursor_matches_server_side_resume(actions, ack_count):
    """Resuming with an explicit client cursor ≡ resuming by name alone.

    A WebSocket client that lost its connection but kept its own ack
    watermark may hand that cursor back on resubscribe; the gateway
    fast-forwards the durable cursor before attaching.  The resulting
    stream must be exactly what a name-only resume against the persisted
    cursor would deliver.
    """
    with _serving(WS) as (front, oracle):
        host, port = front.address

        async def scenario():
            ws = await WsClient.connect(host, port)
            subscription = await ws.subscribe("wanderer")
            await WS.submit(host, port, _statements(actions), batched=False)
            delivered = oracle.drain()
            first = await _consume_session(ws, subscription, stop_after=ack_count)
            cursor = dict(subscription.cursor)
            ws._writer.transport.abort()
            await ws.close()

            revived = await WsClient.connect(host, port)
            resumed = await revived.subscribe("wanderer", cursor=cursor)
            assert resumed.durable
            second = await _consume_session(revived, resumed)
            await revived.close()
            return first, second, cursor, delivered

        first, second, cursor, delivered = asyncio.run(scenario())

    seen = {_signature(a) for a in first} | {_signature(a) for a in second}
    assert seen == {_signature(a) for a in delivered}
    # Nothing at or below the handed-back cursor is redelivered.
    for activation in second:
        assert activation.sequence > cursor.get(activation.shard, 0)
