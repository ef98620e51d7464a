"""Web-protocol fuzz: hostile bytes must never crash, hang, or corrupt.

The web twin of ``test_net_protocol_fuzz.py``, seeded from the session seed
(``REPRO_TEST_SEED`` reproduces any failure bit-for-bit):

* **HTTP parser level** — :func:`repro.serving.web.http.read_request` is
  fed torn requests, garbage request lines, oversized header blocks, lying
  and malformed ``Content-Length`` values, and truncated bodies.  Every
  outcome must be an :class:`HttpError` (a
  :class:`~repro.errors.ProtocolError` carrying the status to answer) or an
  ``IncompleteReadError`` — never any other exception, never a hang;
* **WebSocket codec level** — :class:`repro.serving.web.wsproto.WsReader`
  takes truncated frames, wrong-direction masks, reserved bits, fragmented
  and oversized control frames, continuation abuse, and attacker-declared
  giant lengths (which must be refused *before* the payload is buffered);
* **live gateway level** — a running :class:`WebGateway` absorbs volleys of
  hostile connections (garbage HTTP, torn upgrades, bad handshake keys,
  valid upgrades followed by junk frames, unmasked frames, JSON garbage).
  After every volley the gateway must still serve a well-behaved HTTP and
  WebSocket client, and every hostile connection must be torn down.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import struct

import pytest

from repro.errors import ProtocolError
from repro.relational.dml import UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.web import WebClient, WebGateway, WsClient
from repro.serving.web import wsproto
from repro.serving.web.http import HttpError, read_request, response_bytes
from repro.serving.web.webframes import text_frame
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database
from tests.serving.test_net_protocol_fuzz import broken_runs, good_run

#: Exceptions a hostile byte stream is *allowed* to produce.
ALLOWED = (ProtocolError, asyncio.IncompleteReadError)


def feed(data: bytes, limit: int = 64 * 1024) -> asyncio.StreamReader:
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse_request(data: bytes, **kwargs):
    """Run read_request over bytes; the request, None, or the error."""

    async def scenario():
        try:
            return await asyncio.wait_for(
                read_request(feed(data), **kwargs), timeout=5
            )
        except ALLOWED as error:
            return error

    return asyncio.run(scenario())


def read_ws(data: bytes, *, require_mask: bool = True, **kwargs):
    """Run WsReader.next_message over bytes; the message or the error."""

    async def scenario():
        reader = wsproto.WsReader(feed(data), require_mask=require_mask,
                                  **kwargs)
        try:
            return await asyncio.wait_for(reader.next_message(), timeout=5)
        except ALLOWED as error:
            return error

    return asyncio.run(scenario())


GOOD_REQUEST = (
    b"POST /v1/submit HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}"
)


# ------------------------------------------------------------------ HTTP level


class TestHttpParserFuzz:
    def test_well_formed_request_round_trips(self):
        request = parse_request(GOOD_REQUEST)
        assert request.method == "POST"
        assert request.path == "/v1/submit"
        assert request.body == b"{}"

    def test_clean_eof_is_none(self):
        assert parse_request(b"") is None

    def test_truncation_at_every_boundary(self):
        for cut in range(1, len(GOOD_REQUEST)):
            outcome = parse_request(GOOD_REQUEST[:cut])
            assert outcome is None or isinstance(outcome, ALLOWED), (
                cut, outcome,
            )

    def test_random_garbage_streams(self, session_rng):
        for _ in range(300):
            garbage = session_rng.randbytes(session_rng.randint(1, 128))
            outcome = parse_request(garbage)
            assert outcome is None or isinstance(outcome, ALLOWED), outcome

    def test_garbage_request_lines(self):
        for line in (
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"FROB / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/9.9\r\n\r\n",
            b"GET http://evil HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
        ):
            outcome = parse_request(line)
            assert isinstance(outcome, HttpError), (line, outcome)
            assert outcome.status in (400, 501)

    def test_oversized_header_block_is_431(self):
        data = (
            b"GET / HTTP/1.1\r\n"
            + b"X-Pad: " + b"a" * 9000 + b"\r\n\r\n"
        )
        outcome = parse_request(data, max_header=4096)
        assert isinstance(outcome, HttpError)
        assert outcome.status == 431

    def test_lying_content_length_is_413_before_buffering(self):
        # The body is absent: an implementation reading it first would
        # raise IncompleteReadError instead of the 413.
        data = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        outcome = parse_request(data, max_body=4096)
        assert isinstance(outcome, HttpError)
        assert outcome.status == 413

    def test_malformed_content_length(self):
        for value in (b"nope", b"-5", b"1e3", b"0x10"):
            data = b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
            outcome = parse_request(data)
            assert isinstance(outcome, HttpError), (value, outcome)
            assert outcome.status == 400

    def test_truncated_body(self):
        data = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        outcome = parse_request(data)
        assert isinstance(outcome, HttpError)

    def test_chunked_encoding_is_refused(self):
        data = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        outcome = parse_request(data)
        assert isinstance(outcome, HttpError)
        assert outcome.status == 501

    def test_malformed_header_lines(self):
        for header in (b"NoColonHere", b" : empty-name", b"Bad\x00Null: x"):
            data = b"GET / HTTP/1.1\r\n" + header + b"\r\n\r\n"
            outcome = parse_request(data)
            assert isinstance(outcome, HttpError), (header, outcome)


# ------------------------------------------------------------- WebSocket level


def masked_text(payload: bytes) -> bytes:
    return wsproto.encode_frame(wsproto.OP_TEXT, payload, mask=True)


class TestWsCodecFuzz:
    def test_round_trip_of_random_masked_frames(self, session_rng):
        for _ in range(200):
            payload = session_rng.randbytes(session_rng.randint(0, 300))
            opcode, out = read_ws(masked_text(payload))
            assert opcode == wsproto.OP_TEXT
            assert out == payload

    def test_truncation_at_every_boundary(self, session_rng):
        frame = masked_text(session_rng.randbytes(40))
        for cut in range(len(frame)):
            outcome = read_ws(frame[:cut])
            assert isinstance(outcome, ALLOWED), (cut, outcome)

    def test_unmasked_client_frame_is_refused(self):
        frame = wsproto.encode_frame(wsproto.OP_TEXT, b"hi", mask=False)
        outcome = read_ws(frame, require_mask=True)
        assert isinstance(outcome, ProtocolError)
        assert "masked" in str(outcome)

    def test_masked_server_frame_is_refused(self):
        frame = wsproto.encode_frame(wsproto.OP_TEXT, b"hi", mask=True)
        outcome = read_ws(frame, require_mask=False)
        assert isinstance(outcome, ProtocolError)

    def test_reserved_bits_are_refused(self, session_rng):
        frame = bytearray(masked_text(b"x"))
        frame[0] |= session_rng.choice([0x10, 0x20, 0x40, 0x70])
        outcome = read_ws(bytes(frame))
        assert isinstance(outcome, ProtocolError)
        assert "reserved" in str(outcome)

    def test_unknown_opcodes_are_refused(self):
        for opcode in (0x3, 0x7, 0xB, 0xF):
            frame = bytearray(masked_text(b"x"))
            frame[0] = (frame[0] & 0xF0) | opcode
            outcome = read_ws(bytes(frame))
            assert isinstance(outcome, ProtocolError), hex(opcode)

    def test_continuation_outside_a_message_is_refused(self):
        frame = bytearray(masked_text(b"x"))
        frame[0] = 0x80 | wsproto.OP_CONT
        outcome = read_ws(bytes(frame))
        assert isinstance(outcome, ProtocolError)

    def test_new_data_frame_inside_fragmented_message_is_refused(self):
        first = bytearray(masked_text(b"frag"))
        first[0] &= 0x7F  # clear FIN: a fragmented TEXT begins
        outcome = read_ws(bytes(first) + masked_text(b"another"))
        assert isinstance(outcome, ProtocolError)

    def test_fragmented_message_reassembles(self):
        first = bytearray(masked_text(b"hello "))
        first[0] &= 0x7F
        cont = bytearray(masked_text(b"world"))
        cont[0] = 0x80 | wsproto.OP_CONT
        opcode, payload = read_ws(bytes(first) + bytes(cont))
        assert opcode == wsproto.OP_TEXT
        assert payload == b"hello world"

    def test_fragmented_control_frame_is_refused(self):
        frame = bytearray(
            wsproto.encode_frame(wsproto.OP_PING, b"x", mask=True)
        )
        frame[0] &= 0x7F  # clear FIN on a control frame
        outcome = read_ws(bytes(frame))
        assert isinstance(outcome, ProtocolError)

    def test_oversized_control_payload_is_refused(self):
        # encode_frame itself refuses to build one, so craft it by hand.
        payload = bytes(200)
        head = bytes([0x80 | wsproto.OP_PING, 0x80 | 126]) \
            + struct.pack(">H", len(payload))
        frame = head + bytes(4) + payload
        outcome = read_ws(frame)
        assert isinstance(outcome, ProtocolError)
        with pytest.raises(ProtocolError):
            wsproto.encode_frame(wsproto.OP_PING, payload)

    def test_giant_declared_length_is_refused_before_buffering(self):
        # 1 GiB declared, zero bytes present: reading the payload first
        # would surface IncompleteReadError, not the cap's ProtocolError.
        head = bytes([0x80 | wsproto.OP_BINARY, 0x80 | 127]) \
            + struct.pack(">Q", 1 << 30)
        outcome = read_ws(head, max_message=64 * 1024)
        assert isinstance(outcome, ProtocolError)
        assert "cap" in str(outcome)

    def test_fragment_total_exceeding_cap_is_refused(self):
        chunk = bytes(1024)
        first = bytearray(masked_text(chunk))
        first[0] &= 0x7F
        conts = b""
        for _ in range(5):
            cont = bytearray(masked_text(chunk))
            cont[0] = wsproto.OP_CONT  # FIN clear: keep the message open
            conts += bytes(cont)
        outcome = read_ws(bytes(first) + conts, max_message=4096)
        assert isinstance(outcome, ProtocolError)

    def test_close_frame_payloads(self):
        assert wsproto.parse_close(b"") == (wsproto.CLOSE_NORMAL, "")
        code, reason = wsproto.parse_close(
            struct.pack(">H", 1001) + "bye é".encode()
        )
        assert code == 1001 and reason == "bye é"
        with pytest.raises(ProtocolError):
            wsproto.parse_close(b"\x03")
        with pytest.raises(ProtocolError):
            wsproto.parse_close(struct.pack(">H", 1000) + b"\xff\xfe")

    def test_random_garbage_streams(self, session_rng):
        for _ in range(300):
            garbage = session_rng.randbytes(session_rng.randint(0, 64))
            outcome = read_ws(garbage)
            assert isinstance(outcome, ALLOWED) or isinstance(outcome, tuple), (
                outcome,
            )


# ------------------------------------------------------------------ live level


@pytest.fixture
def live():
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.start()
    gateway = WebGateway(
        server, max_header=8 * 1024, max_body=64 * 1024,
        max_ws_message=64 * 1024,
    ).start()
    try:
        yield gateway
    finally:
        gateway.stop()
        server.stop()


def upgrade_bytes(key: str = "") -> bytes:
    key = key or base64.b64encode(bytes(16)).decode()
    return (
        f"GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\n"
        f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
        f"Sec-WebSocket-Version: 13\r\n\r\n"
    ).encode()


async def hostile_volley(host: str, port: int, rng: random.Random) -> None:
    """One hostile connection chosen from the abuse repertoire."""
    behaviour = rng.choice([
        "http_garbage", "torn_request", "huge_header", "lying_length",
        "bad_ws_key", "bad_ws_version", "torn_upgrade",
        "upgrade_then_garbage", "upgrade_then_unmasked",
        "upgrade_then_giant", "upgrade_then_bad_json",
        "upgrade_then_torn_frame", "instant_close",
    ])
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if behaviour == "http_garbage":
            writer.write(rng.randbytes(rng.randint(1, 512)))
        elif behaviour == "torn_request":
            writer.write(b"POST /v1/submit HTTP/1.1\r\nContent-Le")
        elif behaviour == "huge_header":
            writer.write(
                b"GET / HTTP/1.1\r\nX-Flood: " + b"f" * 65536 + b"\r\n\r\n"
            )
        elif behaviour == "lying_length":
            writer.write(
                b"POST /v1/submit HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            )
        elif behaviour == "bad_ws_key":
            writer.write(upgrade_bytes(key="not-base64!!"))
        elif behaviour == "bad_ws_version":
            writer.write(
                upgrade_bytes().replace(b"Version: 13", b"Version: 8")
            )
        elif behaviour == "torn_upgrade":
            writer.write(upgrade_bytes()[: rng.randint(1, 40)])
        else:
            writer.write(upgrade_bytes())
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            if behaviour == "upgrade_then_garbage":
                writer.write(rng.randbytes(rng.randint(1, 256)))
            elif behaviour == "upgrade_then_unmasked":
                writer.write(
                    wsproto.encode_frame(
                        wsproto.OP_TEXT, b'{"type":"ping"}', mask=False
                    )
                )
            elif behaviour == "upgrade_then_giant":
                writer.write(
                    bytes([0x82, 0x80 | 127]) + struct.pack(">Q", 1 << 40)
                )
            elif behaviour == "upgrade_then_bad_json":
                writer.write(
                    wsproto.encode_frame(
                        wsproto.OP_TEXT, b"{not json", mask=True
                    )
                )
            elif behaviour == "upgrade_then_torn_frame":
                frame = wsproto.encode_frame(
                    wsproto.OP_TEXT, b'{"type":"ping","id":1}', mask=True
                )
                writer.write(frame[: rng.randint(1, len(frame) - 1)])
            # "instant_close" sends nothing after the upgrade.
        await writer.drain()
        if rng.random() < 0.5:
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


class TestLiveGatewayFuzz:
    def test_hostile_volleys_never_take_the_gateway_down(
        self, live, session_rng
    ):
        host, port = live.address

        async def scenario():
            for _ in range(40):
                await asyncio.wait_for(
                    hostile_volley(host, port, session_rng), timeout=10
                )
            # Interleave: a burst of concurrent hostiles.
            await asyncio.wait_for(
                asyncio.gather(
                    *(hostile_volley(host, port, session_rng)
                      for _ in range(10))
                ),
                timeout=30,
            )
            # The gateway must still speak fluent HTTP *and* WebSocket.
            async with await WebClient.connect(host, port) as client:
                results = await client.submit(
                    UpdateStatement("vendor", {"price": 63.0},
                                    keys=[("Amazon", "P1")])
                )
                assert results[0]["rowcount"] == 1
            async with await WsClient.connect(host, port) as ws:
                subscription = await ws.subscribe()
                assert subscription is not None
                await ws.ping()

        asyncio.run(scenario())
        # Every hostile connection was torn down; nothing leaked.
        deadline = 50
        while live.connection_count > 0 and deadline > 0:
            import time

            time.sleep(0.1)
            deadline -= 1
        assert live.connection_count == 0
        assert live.counters["protocol_errors"] > 0

    def test_bad_method_on_ws_endpoint(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                upgrade_bytes().replace(b"GET /ws", b"POST /ws")
            )
            await writer.drain()
            status = (await reader.readline()).split(b" ")[1]
            assert status == b"405"
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_upgrade_on_unknown_path_is_404(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(upgrade_bytes().replace(b"/ws", b"/elsewhere"))
            await writer.drain()
            status = (await reader.readline()).split(b" ")[1]
            assert status == b"404"
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_oversized_ws_message_gets_close_frame(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            key = base64.b64encode(bytes(16)).decode()
            writer.write(upgrade_bytes(key))
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                bytes([0x81, 0x80 | 127]) + struct.pack(">Q", 1 << 31)
            )
            await writer.drain()
            ws_reader = wsproto.WsReader(reader, require_mask=False)
            opcode, payload = await ws_reader.next_message()
            assert opcode == wsproto.OP_CLOSE
            code, _reason = wsproto.parse_close(payload)
            assert code == wsproto.CLOSE_PROTOCOL_ERROR
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_unknown_json_type_gets_close_frame(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(upgrade_bytes())
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                wsproto.encode_frame(
                    wsproto.OP_TEXT, b'{"type":"mystery"}', mask=True
                )
            )
            await writer.drain()
            ws_reader = wsproto.WsReader(reader, require_mask=False)
            opcode, payload = await ws_reader.next_message()
            assert opcode == wsproto.OP_CLOSE
            code, _ = wsproto.parse_close(payload)
            assert code == wsproto.CLOSE_PROTOCOL_ERROR
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_binary_subscription_message_is_refused(self, live):
        host, port = live.address

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(upgrade_bytes())
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                wsproto.encode_frame(
                    wsproto.OP_BINARY, b'{"type":"ping"}', mask=True
                )
            )
            await writer.drain()
            ws_reader = wsproto.WsReader(reader, require_mask=False)
            opcode, payload = await ws_reader.next_message()
            assert opcode == wsproto.OP_CLOSE
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))


# ------------------------------------------------------- hostile gateway pushes


def hostile_ws_push_outcome(messages: list[bytes]):
    """Upgrade a real WsClient against a scripted gateway, push ``messages``.

    Returns ``(activations_received, stream_ended)``: a hostile push may
    only ever end the stream — never hang the client, never escape its
    reader as an exception.
    """

    async def handle(reader, writer):
        request = await read_request(reader)
        writer.write(response_bytes(101, extra_headers={
            "Upgrade": "websocket",
            "Connection": "Upgrade",
            "Sec-WebSocket-Accept": wsproto.accept_key(request.header("sec-websocket-key")),
        }))
        ws_reader = wsproto.WsReader(reader, require_mask=True)
        _opcode, payload = await ws_reader.next_message()
        subscribe = json.loads(payload)
        writer.write(text_frame(
            {"type": "subscribed", "id": subscribe["id"], "name": "victim", "durable": False}
        ))
        for message in messages:
            writer.write(wsproto.encode_frame(wsproto.OP_TEXT, message))
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            client = await WsClient.connect(host, port)
            subscription = await client.subscribe("victim")
            received = []
            while True:
                activation = await subscription.get(timeout=10)
                if activation is None:
                    break
                received.append(activation)
            await client.close()
            return received, True
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30))


class TestHostileActivationsPushes:
    """The ``activations`` node-table message, as strictly read as TCP's."""

    def test_a_good_activations_message_is_delivered(self):
        body = json.dumps({"type": "activations", **good_run(3)}).encode()
        received, ended = hostile_ws_push_outcome([body])
        assert [a.sequence for a in received] == [1, 2, 3]
        assert received[0].new_node is received[2].new_node  # parsed once
        assert ended

    def test_malformed_activations_shapes_end_the_stream(self):
        for broken in broken_runs():
            try:
                body = json.dumps({"type": "activations", **broken}).encode()
            except TypeError:  # not JSON-encodable: cannot be sent
                continue
            received, ended = hostile_ws_push_outcome([body])
            assert received == [] and ended, broken

    def test_everything_before_the_bad_message_was_delivered(self):
        good = json.dumps({"type": "activations", **good_run(2)}).encode()
        bad = json.dumps({"type": "activations", "nodes": [], "acts": [[0] * 8]}).encode()
        received, ended = hostile_ws_push_outcome([good, bad, good])
        assert [a.sequence for a in received] == [1, 2]
        assert ended

    def test_non_json_and_non_object_messages_end_the_stream(self):
        for body in (b"\xff\xfe", b"not json", b"[1,2]", b"7", b'"activations"'):
            received, ended = hostile_ws_push_outcome([body])
            assert received == [] and ended, body
