"""Property: network delivery ≡ the in-process subscriber oracle.

For a random workload of wire-expressible statements, a network subscriber —
including one that is **killed mid-stream and resumes from its durable
cursor** over a fresh connection — must deliver:

* exactly the oracle's activation set once deduplicated by
  ``(shard, sequence)`` (at-least-once: duplicates are allowed only as
  cursor-window redeliveries, losses never),
* every oracle activation at least once (nothing silently dropped, no
  silent fallback to a weaker delivery mode — the subscription must report
  itself durable),
* in per-shard sequence order within every connection session, which (a
  node's key pinning it to one shard) is per-node order.

The oracle is the in-process :class:`repro.serving.Subscriber` attached to
the *same* durable server, so the comparison isolates precisely the network
path: framing, the thread↔asyncio bridge, cursor persistence, and resume.
Statements are pipelined, so micro-batches form and a delivery run is a
node-table frame; the comparison includes both node texts, and runs over
every frame shape (one frame per run, a run split by the byte budget,
``caps=()`` single frames), every loop count, server-side filters that keep
a subset of a bundle, and a send buffer that takes only a prefix of one.
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
from repro.serving.net import NetClient, NetworkServer, SharedFrameCache
from repro.xqgm.views import ViewDefinition, catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))

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


_INITIAL_VENDORS = {
    ("Amazon", "P1"), ("Bestbuy", "P1"), ("Circuitcity", "P1"),
    ("Buy.com", "P2"), ("Bestbuy", "P2"), ("Bestbuy", "P3"),
    ("Circuitcity", "P3"),
}


async def _pipeline(client, actions) -> None:
    """Submit the actions' statements back to back, then await every reply."""
    existing = set(_INITIAL_VENDORS)
    statements = [
        s for s in (_to_statement(action, existing) for action in actions) if s is not None
    ]
    await asyncio.gather(*(client.execute(statement) for statement in statements))


def _assert_per_shard_order(session) -> None:
    per_shard: dict[int, list[int]] = {}
    for activation in session:
        per_shard.setdefault(activation.shard, []).append(activation.sequence)
    for sequences in per_shard.values():
        assert sequences == sorted(sequences)


async def _consume_session(
    client, subscription, *, stop_after=None, ack_upto=None
) -> list:
    """Consume (and ack a prefix of) one connection session's stream.

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
            await client.ack(activation)
    return consumed


# The full front-end configuration matrix: frame shape × single/multi loop.
# ``runs`` is one node-table frame per delivery run, ``split`` the same under
# a byte budget no two activations fit, ``singles`` a client without the
# capability.  Per-combination example counts shrink so the whole matrix
# costs about what one configuration did before.
_SHAPES = {"runs": None, "split": None, "singles": ()}
_MATRIX = [(loops, shape) for loops in (1, 4) for shape in _SHAPES]


@pytest.mark.parametrize("loops,shape", _MATRIX)
@settings(
    max_examples=max(3, min(_EXAMPLES, 60) // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    actions=st.lists(_actions, min_size=1, max_size=10),
    kill_after=st.integers(0, 20),
    ack_prefix=st.integers(0, 20),
)
def test_net_delivery_with_kill_and_resume_matches_oracle(
    loops, shape, actions, kill_after, ack_prefix
):
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir))
        oracle = server.subscribe("oracle", capacity=4096)
        net = NetworkServer(server, send_buffer=4096, loops=loops)
        if shape == "split":
            net.frame_cache = SharedFrameCache(max_frame=2)
        server.start()
        net.start()
        try:
            host, port = net.address
            sessions = asyncio.run(
                _scenario(host, port, actions, kill_after, ack_prefix, _SHAPES[shape])
            )
            report = net.net_report()
        finally:
            net.stop()
            server.stop()
        if shape != "runs":
            assert report["activation_batches_sent"] == 0

        oracle_signatures = Counter(_signature(a) for a in oracle.drain())
        all_consumed = [a for session in sessions for a in session]
        net_signatures = Counter(_signature(a) for a in all_consumed)

        # Deduplicated, the network stream is *exactly* the oracle stream.
        assert set(net_signatures) == set(oracle_signatures), (
            "network delivery diverged from the in-process oracle"
        )
        # The oracle saw each activation exactly once; the network path may
        # repeat one (redelivery window) but must never invent one.
        assert all(count == 1 for count in oracle_signatures.values())

        # Per-shard (and therefore per-node) order within every session.
        for session in sessions:
            _assert_per_shard_order(session)


async def _scenario(host, port, actions, kill_after, ack_prefix, caps):
    sessions: list[list] = []

    client = await NetClient.connect(host, port, caps=caps)
    subscription = await client.subscribe("consumer")
    assert subscription.durable, "silent fallback to a non-durable stream"
    await _pipeline(client, actions)

    # Session 1: consume part of the stream, ack only a prefix of that,
    # then die without so much as a goodbye.
    first = await _consume_session(
        client, subscription, stop_after=kill_after, ack_upto=ack_prefix
    )
    sessions.append(first)
    acked = first[: min(ack_prefix, len(first))]
    if acked:
        await client.ping()  # make sure the last ack frame reached the server
    client._writer.transport.abort()  # the crash
    await client.close()

    # Session 2 (post-crash): resume from the durable cursor and run dry.
    # Everything past the acked prefix must come back.
    revived = await NetClient.connect(host, port, caps=caps)
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
def test_batched_submission_delivers_identically(actions):
    """Submitting via one batch frame ≡ per-statement frames ≡ the oracle."""
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir))
        oracle = server.subscribe("oracle", capacity=4096)
        net = NetworkServer(server, send_buffer=4096)
        server.start()
        net.start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port)
                subscription = await client.subscribe("batcher")
                existing = set(_INITIAL_VENDORS)
                statements = [
                    s for s in (_to_statement(a, existing) for a in actions)
                    if s is not None
                ]
                if statements:
                    results = await client.execute_batch(statements)
                    assert len(results) == len(statements)
                consumed = await _consume_session(client, subscription)
                await client.close()
                return consumed

            consumed = asyncio.run(scenario())
        finally:
            net.stop()
            server.stop()

        oracle_signatures = Counter(_signature(a) for a in oracle.drain())
        net_signatures = Counter(_signature(a) for a in consumed)
        assert net_signatures == oracle_signatures


@pytest.mark.parametrize("caps", [None, ()], ids=["runs", "singles"])
@settings(
    max_examples=max(3, min(_EXAMPLES, 60) // 2),
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
def test_filtered_and_paused_streams_match_the_filtered_oracle(caps, actions, keep, send_buffer):
    """A filter keeps a subset of each bundle; a small send buffer takes a
    prefix of what is left and pauses.  Acking and re-subscribing until the
    stream runs dry yields exactly the oracle's activations the filter keeps
    — each once, ``paused`` always the last word of its session."""
    with tempfile.TemporaryDirectory() as raw_dir:
        server = _open_stack(Path(raw_dir), outlet=True)
        oracle = server.subscribe("oracle", capacity=4096)
        net = NetworkServer(server, send_buffer=send_buffer)
        server.start()
        net.start()
        try:
            host, port = net.address

            async def scenario():
                client = await NetClient.connect(host, port, caps=caps)
                producer = await NetClient.connect(host, port)
                sessions, pauses = [], []
                subscription = await client.subscribe("picky", **keep)
                await _pipeline(producer, actions)
                while True:
                    session = await _consume_session(client, subscription)
                    sessions.append(session)
                    if not subscription.paused:
                        break
                    # Nothing arrives after the pause notice, and what it
                    # says was sent is what arrived.
                    assert subscription.ended
                    pauses.append((subscription.pause_info["sent"], list(session)))
                    await client.ping()  # the acks are in before the resume
                    subscription = await client.subscribe("picky", **keep)
                await client.close()
                await producer.close()
                return sessions, pauses

            sessions, pauses = asyncio.run(scenario())
            paused = net.net_report()["subscriptions_paused"]
        finally:
            net.stop()
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
            assert {int(shard): sequence for shard, sequence in sent.items()} == high
        if send_buffer == 4096:
            assert not pauses
