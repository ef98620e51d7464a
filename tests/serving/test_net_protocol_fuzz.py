"""Protocol fuzz: hostile bytes must never crash, hang, or corrupt the server.

Two layers, both seeded from the session seed (``REPRO_TEST_SEED``
reproduces any failure bit-for-bit):

* **codec level** — :func:`repro.serving.net.protocol.read_frame` is fed
  torn frames, bit-flipped frames, garbage headers, oversized and
  zero-length declarations, and well-encoded payloads that are not
  messages.  Every outcome must be a :class:`~repro.errors.ProtocolError`
  or an ``IncompleteReadError`` — never any other exception, never a hang,
  never a silently wrong message;
* **live socket level** — a running :class:`NetworkServer` takes volleys of
  malformed connections (garbage streams, mid-frame disconnects, hostile
  length headers, valid handshakes followed by junk).  After every volley
  the server must still serve a well-behaved client, and every hostile
  connection must be fully cleaned up.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import NetworkError, ProtocolError
from repro.persist.codec import encode_value
from repro.relational.dml import UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.serving.net.protocol import (
    HEADER,
    MAX_BATCH_ACTIVATIONS,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    run_from_wire,
)
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database

#: Exceptions a hostile byte stream is *allowed* to produce.
ALLOWED = (ProtocolError, asyncio.IncompleteReadError)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_bytes(data: bytes, **kwargs):
    """Run read_frame over a byte string; returns the message or the error."""

    async def scenario():
        try:
            return await asyncio.wait_for(
                read_frame(feed(data), **kwargs), timeout=5
            )
        except ALLOWED as error:
            return error

    return asyncio.run(scenario())


def random_message(rng: random.Random, depth: int = 0) -> dict:
    """A random wire message built from codec-encodable values."""

    def value(level: int):
        choices = ["int", "float", "str", "bytes", "bool", "none"]
        if level < 2:
            choices += ["list", "dict", "tuple"]
        kind = rng.choice(choices)
        if kind == "int":
            return rng.randint(-(2**40), 2**40)
        if kind == "float":
            return rng.uniform(-1e6, 1e6)
        if kind == "str":
            return "".join(
                rng.choice("abcdefghij é中\U0001f600")
                for _ in range(rng.randint(0, 12))
            )
        if kind == "bytes":
            return rng.randbytes(rng.randint(0, 16))
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "none":
            return None
        if kind == "tuple":
            return tuple(value(level + 1) for _ in range(rng.randint(0, 3)))
        if kind == "list":
            return [value(level + 1) for _ in range(rng.randint(0, 4))]
        return {
            f"k{i}": value(level + 1) for i in range(rng.randint(0, 4))
        }

    message = {f"field{i}": value(depth) for i in range(rng.randint(0, 5))}
    message["type"] = rng.choice(["ping", "submit", "whatever", "x" * 40])
    return message


# ---------------------------------------------------------------- codec level


class TestFrameCodecFuzz:
    def test_round_trip_of_random_messages(self, session_rng):
        for _ in range(200):
            message = random_message(session_rng)
            decoded = read_bytes(encode_frame(message))
            assert decoded == message

    def test_truncation_at_every_boundary(self, session_rng):
        frame = encode_frame(random_message(session_rng))
        for cut in range(len(frame)):
            outcome = read_bytes(frame[:cut])
            # A torn frame is always an IncompleteReadError: the declared
            # length can't be satisfied.  (ProtocolError can only appear if
            # the cut leaves a *complete* lie, which truncation never does.)
            assert isinstance(outcome, ALLOWED), (cut, outcome)

    def test_single_bit_flips_are_always_detected(self, session_rng):
        message = random_message(session_rng)
        frame = bytearray(encode_frame(message))
        for _ in range(300):
            position = session_rng.randrange(len(frame))
            bit = 1 << session_rng.randrange(8)
            mutated = bytearray(frame)
            mutated[position] ^= bit
            outcome = read_bytes(bytes(mutated))
            assert isinstance(outcome, ALLOWED), (
                f"bit flip at byte {position} slipped through: {outcome!r}"
            )

    def test_random_garbage_streams(self, session_rng):
        for _ in range(300):
            garbage = session_rng.randbytes(session_rng.randint(0, 64))
            outcome = read_bytes(garbage)
            assert isinstance(outcome, ALLOWED), outcome

    def test_zero_length_frame_is_an_error(self):
        data = HEADER.pack(0, 0)
        assert isinstance(read_bytes(data), ProtocolError)

    def test_oversized_declaration_fails_before_reading_payload(self):
        # The body is *absent*; an implementation that tried to read it
        # first would raise IncompleteReadError instead of ProtocolError.
        data = HEADER.pack(2**31, 0)
        outcome = read_bytes(data, max_frame=1024)
        assert isinstance(outcome, ProtocolError)
        assert "exceeds" in str(outcome)

    def test_valid_codec_payload_that_is_not_a_message(self):
        import zlib

        for payload_value in (42, [1, 2, 3], {"no": "type"}, {"type": 7}):
            payload = encode_value(payload_value)
            data = HEADER.pack(len(payload), zlib.crc32(payload)) + payload
            assert isinstance(read_bytes(data), ProtocolError)

    def test_encode_rejects_non_messages(self):
        with pytest.raises(ProtocolError):
            encode_frame({"no-type": 1})
        with pytest.raises(ProtocolError):
            encode_frame({"type": 99})


# ----------------------------------------------------------------- live server


@pytest.fixture
def live():
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.start()
    net = NetworkServer(server, send_buffer=16, max_frame=64 * 1024).start()
    try:
        yield net
    finally:
        net.stop()
        server.stop()


async def hostile_volley(host: str, port: int, rng: random.Random) -> None:
    """One hostile connection chosen from the abuse repertoire."""
    behaviour = rng.choice(
        ["garbage", "hello_then_garbage", "torn_frame", "big_header",
         "zero_length", "unknown_type", "instant_close", "bad_crc"]
    )
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if behaviour == "garbage":
            writer.write(rng.randbytes(rng.randint(1, 256)))
            await writer.drain()
        elif behaviour == "hello_then_garbage":
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            writer.write(rng.randbytes(rng.randint(9, 128)))
            await writer.drain()
        elif behaviour == "torn_frame":
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            frame = encode_frame({"type": "ping", "id": 1})
            writer.write(frame[: rng.randint(1, len(frame) - 1)])
            await writer.drain()
            # ...and vanish mid-frame.
        elif behaviour == "big_header":
            writer.write(HEADER.pack(2**31 - 1, 0))
            await writer.drain()
        elif behaviour == "zero_length":
            writer.write(HEADER.pack(0, 0))
            await writer.drain()
        elif behaviour == "unknown_type":
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            writer.write(encode_frame({"type": "mystery", "id": 1}))
            await writer.drain()
        elif behaviour == "bad_crc":
            frame = bytearray(encode_frame({"type": "hello", "version": 1}))
            frame[-1] ^= 0xFF
            writer.write(bytes(frame))
            await writer.drain()
        # "instant_close" sends nothing at all.
        if rng.random() < 0.5:
            # Half the time, linger until the server reacts (error frame or
            # close); the other half, disconnect abruptly right away.
            try:
                await asyncio.wait_for(reader.read(4096), timeout=2)
            except asyncio.TimeoutError:
                pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestLiveServerFuzz:
    def test_hostile_volleys_never_take_the_server_down(self, live, session_rng):
        host, port = live.address

        async def scenario():
            for _ in range(40):
                await asyncio.wait_for(
                    hostile_volley(host, port, session_rng), timeout=10
                )
            # Interleave: a burst of concurrent hostiles.
            await asyncio.wait_for(
                asyncio.gather(
                    *(hostile_volley(host, port, session_rng) for _ in range(10))
                ),
                timeout=30,
            )
            # The server must still speak fluent protocol with a good client.
            async with await NetClient.connect(host, port) as client:
                await client.ping()
                summaries = await client.execute(
                    UpdateStatement("vendor", {"price": 63.0}, keys=[("Amazon", "P1")])
                )
                assert summaries[0]["rowcount"] == 1
                subscription = await client.subscribe()
                assert subscription is not None

        asyncio.run(scenario())
        # Every hostile connection was torn down; nothing leaked.
        deadline = 50
        while len(live.connections) > 0 and deadline > 0:
            import time

            time.sleep(0.1)
            deadline -= 1
        assert len(live.connections) == 0
        assert live.counters["protocol_errors"] > 0

    def test_mid_frame_disconnect_during_handshake(self, live):
        host, port = live.address

        async def scenario():
            for cut_frame in (
                encode_frame({"type": "hello", "version": PROTOCOL_VERSION}),
                encode_frame({"type": "hello", "version": 999}),
            ):
                _, writer = await asyncio.open_connection(host, port)
                writer.write(cut_frame[: len(cut_frame) // 2])
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            async with await NetClient.connect(host, port) as client:
                await client.ping()

        asyncio.run(scenario())

    def test_client_sent_activation_batch_is_a_protocol_error(self, live):
        """``activation_batch`` is a server→client push, never a request."""
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            await writer.drain()
            welcome = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert welcome["type"] == "welcome"
            writer.write(encode_frame({"type": "activation_batch", **good_run()}))
            await writer.drain()
            error = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert error["type"] == "error"
            assert error["code"] == "protocol"
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()

        asyncio.run(scenario())

    def test_version_one_hello_is_refused_explicitly(self, live):
        """Peers of the previous protocol versions are told so, then cut —
        version 1 would not understand the node-table ``activation_batch``,
        version 2 expects a run of one as a plain ``activation``."""
        host, port = live.address

        async def scenario(version):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(
                {"type": "hello", "version": version, "caps": ["activation_batch"]}
            ))
            await writer.drain()
            error = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert error["type"] == "error" and error["code"] == "protocol"
            assert f"version mismatch: client {version}, server 3" in error["message"]
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            async with await NetClient.connect(host, port) as client:
                await client.ping()

        assert PROTOCOL_VERSION == 3
        for version in (1, 2):
            asyncio.run(scenario(version))

    def test_a_hello_naming_capabilities_is_welcomed_and_they_are_ignored(self, live):
        """A current-version ``hello`` may still list ``caps`` (a version-2
        habit, or names unknown to this server); nothing is negotiated and
        the ``welcome`` carries only the version and the server facts."""
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({
                "type": "hello", "version": PROTOCOL_VERSION,
                "caps": ["activation_batch", "no-such-capability"],
            }))
            writer.write(encode_frame({"type": "ping", "id": 7}))
            await writer.drain()
            welcome = await asyncio.wait_for(read_frame(reader), timeout=5)
            pong = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()
            return welcome, pong

        welcome, pong = asyncio.run(scenario())
        assert welcome == {
            "type": "welcome",
            "version": PROTOCOL_VERSION,
            "server": {"shards": 2, "durable": False},
        }
        assert pong["type"] == "pong" and pong["id"] == 7

    def test_oversized_frame_gets_error_frame_then_close(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"type": "hello", "version": PROTOCOL_VERSION}))
            await writer.drain()
            welcome = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert welcome["type"] == "welcome"
            writer.write(HEADER.pack(2**30, 0))  # lies about a 1 GiB payload
            await writer.drain()
            error = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert error["type"] == "error"
            assert error["code"] == "protocol"
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()

        asyncio.run(scenario())

# ---------------------------------------------------------- node-table frames

NODE = "<p>x</p>"


def good_run(rows: int = 2) -> dict:
    """A well-formed node-table body (``nodes`` + ``acts``)."""
    return {
        "nodes": [[None, NODE], [NODE, "<p>y</p>"]],
        "acts": [
            [0, n + 1, "t", "v", ["p"], "UPDATE", [n], n % 2] for n in range(rows)
        ],
    }


def broken_runs() -> list[dict]:
    """Every way a node-table body can be wrong, one defect each."""
    def row(**changes) -> list:
        fields = dict(shard=0, sequence=1, trigger="t", view="v", path=["p"],
                      event="UPDATE", key=[1], at=0)
        fields.update(changes)
        return list(fields.values())

    def with_row(*rows) -> dict:
        return {"nodes": [[None, NODE]], "acts": list(rows)}

    return [
        {},
        {"acts": good_run()["acts"]},
        {"nodes": good_run()["nodes"]},
        {"nodes": "nope", "acts": good_run()["acts"]},
        {"nodes": {"0": [None, NODE]}, "acts": good_run()["acts"]},
        {"nodes": 7, "acts": good_run()["acts"]},
        {"nodes": [NODE], "acts": [row()]},
        {"nodes": [[NODE]], "acts": [row()]},
        {"nodes": [[None, NODE, NODE]], "acts": [row()]},
        {"nodes": [[None, 42]], "acts": [row()]},
        {"nodes": [[None, b"<p/>"]], "acts": [row()]},
        {"nodes": [[None, "<p>unclosed"]], "acts": [row()]},
        {"nodes": [[None, "&bogus;"]], "acts": [row()]},
        {"nodes": good_run()["nodes"], "acts": []},
        {"nodes": good_run()["nodes"], "acts": "nope"},
        {"nodes": good_run()["nodes"], "acts": {"a": 1}},
        with_row(42),
        with_row({"shard": 0}),
        with_row(row()[:-1]),          # wrong arity: 7 fields
        with_row(row() + [0]),         # wrong arity: 9 fields
        with_row(row(at=1)),           # index out of range
        with_row(row(at=-1)),          # ... from the other end
        with_row(row(at=10**9)),
        with_row(row(at="0")),
        with_row(row(at=True)),
        with_row(row(at=None)),
        with_row(row(shard="0")),
        with_row(row(sequence=1.5)),
        with_row(row(trigger=None)),
        with_row(row(view=7)),
        with_row(row(path="p")),
        with_row(row(key=1)),
        with_row(row(event="EXPLODE")),
        with_row(row(event=3)),
        with_row(row(), row(at=5)),    # one bad row fails the frame
    ]


class TestRunValidation:
    def test_a_good_run_decodes_with_each_node_parsed_once(self):
        activations = run_from_wire(good_run(4))
        assert [a.sequence for a in activations] == [1, 2, 3, 4]
        assert activations[0].new_node is activations[2].new_node
        assert activations[0].encoded is activations[2].encoded
        assert activations[1].old_node == activations[0].new_node
        assert activations[0].path == ("p",) and activations[0].key == (0,)

    def test_shapes_that_are_not_runs_are_rejected(self):
        for body in broken_runs():
            with pytest.raises(ProtocolError):
                run_from_wire({"type": "activation_batch", **body})

    def test_row_count_limit_is_enforced(self):
        oversized = good_run(MAX_BATCH_ACTIVATIONS + 1)
        with pytest.raises(ProtocolError, match="limit"):
            run_from_wire(oversized)
        assert len(run_from_wire(good_run(4), max_activations=4)) == 4
        with pytest.raises(ProtocolError, match="limit"):
            run_from_wire(good_run(5), max_activations=4)

    def test_random_bodies_never_escape_as_anything_else(self, session_rng):
        for _ in range(300):
            message = random_message(session_rng)
            message["type"] = "activation_batch"
            if session_rng.random() < 0.5:
                message["nodes"] = good_run()["nodes"]
            if session_rng.random() < 0.5:
                message["acts"] = good_run()["acts"]
            try:
                run_from_wire(message)
            except ProtocolError:
                pass


def hostile_push_outcome(frames: list[bytes], *, max_frame: int = 64 * 1024):
    """Handshake a real NetClient against a scripted server, push ``frames``.

    Returns ``(activations_received, stream_ended)``.  The invariant under
    test: no hostile push may hang the client or escape as anything but a
    clean stream end — the reader loop converts ``ProtocolError`` /
    ``IncompleteReadError`` into subscription termination, and a request
    after the end fails at once.
    """

    async def handle(reader, writer):
        hello = await read_frame(reader)
        assert hello["type"] == "hello"
        writer.write(
            encode_frame(
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "server": {"shards": 1, "durable": False},
                }
            )
        )
        subscribe = await read_frame(reader)
        assert subscribe["type"] == "subscribe"
        writer.write(
            encode_frame(
                {
                    "type": "subscribed",
                    "id": subscribe["id"],
                    "name": "victim",
                    "durable": False,
                }
            )
        )
        await writer.drain()
        for frame in frames:
            writer.write(frame)
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            client = await NetClient.connect(host, port, max_frame=max_frame)
            subscription = await client.subscribe("victim")
            received = []
            ended = False
            deadline = 20
            while deadline:
                deadline -= 1
                try:
                    activation = await subscription.get(timeout=1)
                except asyncio.TimeoutError:
                    continue
                if activation is None:
                    ended = True
                    # The connection is gone: a request fails, it never hangs.
                    with pytest.raises(NetworkError, match="closed"):
                        await client.ping()
                    break
                received.append(activation)
            await client.close()
            return received, ended
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30))


class TestHostileBatchPushes:
    """A server that turns hostile must never hang or crash the client."""

    def test_a_good_batch_frame_is_delivered(self):
        frame = encode_frame({"type": "activation_batch", **good_run(3)})
        received, ended = hostile_push_outcome([frame])
        assert [a.sequence for a in received] == [1, 2, 3]
        assert ended  # the scripted server hangs up afterwards

    def test_torn_batch_frame_ends_the_stream_cleanly(self):
        frame = encode_frame({"type": "activation_batch", **good_run(4)})
        received, ended = hostile_push_outcome([frame[: len(frame) - 3]])
        assert received == []
        assert ended

    def test_bit_flipped_batch_frame_is_detected(self, session_rng):
        frame = bytearray(encode_frame({"type": "activation_batch", **good_run()}))
        frame[session_rng.randrange(len(frame))] ^= 1 << session_rng.randrange(8)
        received, ended = hostile_push_outcome([bytes(frame)])
        assert received == []
        assert ended

    def test_malformed_batch_shapes_end_the_stream(self):
        for body in broken_runs():
            try:
                frame = encode_frame({"type": "activation_batch", **body})
            except Exception:  # noqa: BLE001 - not codec-encodable: cannot be sent
                continue
            received, ended = hostile_push_outcome([frame])
            assert received == []
            assert ended, body

    def test_a_previous_version_batch_body_ends_the_stream(self):
        frame = encode_frame(
            {"type": "activation_batch", "payloads": [{"shard": 0, "sequence": 1}]}
        )
        received, ended = hostile_push_outcome([frame])
        assert received == []
        assert ended

    def test_overcount_batch_is_rejected_not_processed(self):
        frame = encode_frame(
            {"type": "activation_batch", **good_run(MAX_BATCH_ACTIVATIONS + 1)}
        )
        received, ended = hostile_push_outcome([frame])
        assert received == []
        assert ended

    def test_batch_frame_above_the_client_read_limit_is_refused(self):
        # Declares ~128 KiB against a 4 KiB client cap: read_frame must
        # refuse on the header, before buffering the payload.
        frame = encode_frame(
            {
                "type": "activation_batch",
                "nodes": [[None, "<p>" + "x" * 1024 + "</p>"] for _ in range(128)],
                "acts": good_run()["acts"],
            }
        )
        assert len(frame) > 4096
        received, ended = hostile_push_outcome([frame], max_frame=4096)
        assert received == []
        assert ended
