"""Asyncio HTTP + WebSocket clients for the web gateway — stdlib only.

:class:`WebClient` is a keep-alive HTTP/1.1 client for the REST surface
(submit, DDL, stats); :class:`WsClient` performs the RFC 6455 upgrade and
speaks the JSON subscription protocol, exposing activations through
:class:`WebSubscription` exactly like the TCP client's stream object —
``get(timeout)``, a ``durable`` flag, and pause/resume via cursors.  Both
exist for the test suites, the example walkthrough, and the fan-out
benchmark; a browser or any off-the-shelf WebSocket library is an equally
valid peer (the wire format is documented in ``docs/networking.md``).
"""

from __future__ import annotations

import asyncio
import base64
import json
import os

from repro.errors import NetworkError, ProtocolError
from repro.relational.dml import Statement
from repro.serving.net.protocol import run_from_wire, statement_to_wire
from repro.serving.subscribers import Activation
from repro.serving.web import wsproto
from repro.serving.web.http import DEFAULT_MAX_HEADER

__all__ = ["GatewayError", "WebClient", "WsClient", "WebSubscription"]

_STREAM_END = object()


class GatewayError(NetworkError):
    """A REST call the gateway answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


async def _read_http_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Read one response: ``(status, lower-cased headers, body)``."""
    try:
        block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-response")
    except asyncio.LimitOverrunError:
        raise ProtocolError("response header block too large")
    lines = block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed response header: {line!r}")
        headers[name.lower().strip()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class WebClient:
    """Keep-alive HTTP client for the gateway's REST endpoints."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        host: str, port: int,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port

    @classmethod
    async def connect(cls, host: str, port: int) -> "WebClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=DEFAULT_MAX_HEADER + 1024
        )
        return cls(reader, writer, host, port)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "WebClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, payload: object | None = None
    ) -> object:
        """One round trip; JSON-decoded body, :class:`GatewayError` on 4xx/5xx."""
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        status, _headers, raw = await _read_http_response(self._reader)
        decoded: object = None
        if raw:
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                raise ProtocolError(f"response body is not JSON: {error}")
        if status >= 400:
            message = ""
            if isinstance(decoded, dict):
                message = decoded.get("error", {}).get("message", "")
            raise GatewayError(status, message or raw.decode("utf-8", "replace"))
        return decoded

    # ------------------------------------------------------------ the surface

    async def submit(self, statement: Statement) -> list[dict]:
        """Execute one statement; its per-part result records."""
        reply = await self.request(
            "POST", "/v1/submit", {"statement": statement_to_wire(statement)}
        )
        return reply["results"]

    async def submit_batch(
        self, statements: list[Statement]
    ) -> list[list[dict]]:
        """Execute statements in order; one result list per statement."""
        reply = await self.request(
            "POST", "/v1/submit-batch",
            {"statements": [statement_to_wire(s) for s in statements]},
        )
        return reply["results"]

    async def create_trigger(self, source: str) -> str:
        reply = await self.request("POST", "/v1/triggers", {"source": source})
        return reply["names"][0]

    async def register_triggers_bulk(self, sources: list[str]) -> list[str]:
        reply = await self.request("POST", "/v1/triggers", {"sources": sources})
        return reply["names"]

    async def drop_trigger(self, name: str) -> None:
        await self.request("DELETE", f"/v1/triggers/{name}")

    async def drop_view(self, name: str) -> None:
        await self.request("DELETE", f"/v1/views/{name}")

    async def stats(self) -> dict:
        reply = await self.request("GET", "/v1/stats")
        assert isinstance(reply, dict)
        return reply


class WebSubscription:
    """One WebSocket subscription's activation stream.

    ``get`` yields :class:`~repro.serving.subscribers.Activation` objects
    (each distinct node text of a message parsed once), or
    ``None`` once the stream ended.  After a ``paused`` message from the
    gateway, :attr:`paused` is set and :attr:`sent_watermark` holds the
    per-shard high-water mark of what the server framed before pausing —
    resume by re-subscribing with :attr:`cursor` (everything acked).
    """

    def __init__(self, name: str, durable: bool) -> None:
        self.name = name
        self.durable = durable
        self.paused = False
        #: Per-shard highest sequence the server reported framing.
        self.sent_watermark: dict[int, int] = {}
        #: Per-shard highest sequence acked through this subscription.
        self.cursor: dict[int, int] = {}
        self._queue: asyncio.Queue = asyncio.Queue()

    async def get(self, timeout: float | None = None) -> Activation | None:
        """Next activation, or ``None`` if the stream ended."""
        if timeout is None:
            item = await self._queue.get()
        else:
            item = await asyncio.wait_for(self._queue.get(), timeout)
        if item is _STREAM_END:
            # Leave the sentinel visible for any later get().
            self._queue.put_nowait(_STREAM_END)
            return None
        return item

    def _push(self, activation: Activation) -> None:
        self._queue.put_nowait(activation)

    def _end(self) -> None:
        self._queue.put_nowait(_STREAM_END)

    def _on_paused(self, sent: dict) -> None:
        self.paused = True
        self.sent_watermark = {int(k): int(v) for k, v in sent.items()}
        self._end()


class WsClient:
    """WebSocket client for the gateway's subscription endpoint."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        *, max_message: int,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ws = wsproto.WsReader(
            reader, require_mask=False, max_message=max_message
        )
        self._next_id = 0
        self._replies: dict[int, asyncio.Future] = {}
        self.subscription: WebSubscription | None = None
        self._pong_waiters: list[asyncio.Future] = []
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_message: int = wsproto.DEFAULT_MAX_MESSAGE,
    ) -> "WsClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=DEFAULT_MAX_HEADER + 1024
        )
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(
            (
                f"GET /ws HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Upgrade: websocket\r\n"
                f"Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                f"Sec-WebSocket-Version: 13\r\n"
                f"\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        status, headers, _body = await _read_http_response(reader)
        if status != 101:
            writer.close()
            raise NetworkError(f"gateway refused the upgrade: HTTP {status}")
        expected = wsproto.accept_key(key)
        if headers.get("sec-websocket-accept") != expected:
            writer.close()
            raise ProtocolError("bad Sec-WebSocket-Accept in the handshake")
        return cls(reader, writer, max_message=max_message)

    async def __aenter__(self) -> "WsClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ---------------------------------------------------------------- sending

    def _send_json(self, message: dict) -> None:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        self._writer.write(
            wsproto.encode_frame(wsproto.OP_TEXT, body, mask=True)
        )

    async def subscribe(
        self,
        name: str | None = None,
        *,
        view: str | None = None,
        path: list | None = None,
        cursor: dict[int, int] | None = None,
    ) -> WebSubscription:
        """Open this connection's subscription stream.

        Install the stream before the request goes out so a backlog
        redelivery racing the reply is never dropped.
        """
        self._next_id += 1
        msg_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._replies[msg_id] = future
        subscription = WebSubscription(name or "", durable=False)
        self.subscription = subscription
        message: dict = {"type": "subscribe", "id": msg_id}
        if name is not None:
            message["name"] = name
        if view is not None:
            message["view"] = view
        if path is not None:
            message["path"] = list(path)
        if cursor is not None:
            message["cursor"] = {str(k): int(v) for k, v in cursor.items()}
        self._send_json(message)
        await self._writer.drain()
        reply = await future
        subscription.name = reply.get("name", subscription.name)
        subscription.durable = bool(reply.get("durable"))
        return subscription

    async def ack(self, activation: Activation) -> None:
        await self.ack_position(activation.shard, activation.sequence)

    async def ack_position(self, shard: int, sequence: int) -> None:
        self._send_json({"type": "ack", "shard": shard, "seq": sequence})
        await self._writer.drain()
        subscription = self.subscription
        if subscription is not None \
                and sequence > subscription.cursor.get(shard, 0):
            subscription.cursor[shard] = sequence

    async def ping(self) -> None:
        """JSON-level round trip — returns once the gateway answered."""
        self._next_id += 1
        msg_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._replies[msg_id] = future
        self._send_json({"type": "ping", "id": msg_id})
        await self._writer.drain()
        await future

    async def ws_ping(self, payload: bytes = b"") -> bytes:
        """Protocol-level ping; resolves with the pong payload."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pong_waiters.append(future)
        self._writer.write(
            wsproto.encode_frame(wsproto.OP_PING, payload, mask=True)
        )
        await self._writer.drain()
        return await future

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.write(wsproto.encode_close(mask=True))
            await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        # The reader loop exits on the close reply (or EOF) and closes the
        # transport; bound the wait so a dead peer can't hang us.
        try:
            await asyncio.wait_for(self._reader_task, timeout=5)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._reader_task.cancel()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ---------------------------------------------------------------- receiving

    async def _read_loop(self) -> None:
        try:
            while True:
                opcode, payload = await self._ws.next_message()
                if opcode == wsproto.OP_CLOSE:
                    if not self._closed:
                        try:
                            self._writer.write(
                                wsproto.encode_close(mask=True)
                            )
                            await self._writer.drain()
                        except (ConnectionError, OSError):
                            pass
                    break
                if opcode == wsproto.OP_PING:
                    self._writer.write(
                        wsproto.encode_frame(
                            wsproto.OP_PONG, payload, mask=True
                        )
                    )
                    continue
                if opcode == wsproto.OP_PONG:
                    while self._pong_waiters:
                        waiter = self._pong_waiters.pop(0)
                        if not waiter.done():
                            waiter.set_result(payload)
                    continue
                self._dispatch(json.loads(payload.decode("utf-8")))
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            ProtocolError,
            ValueError,
        ):
            pass
        finally:
            self._finish()

    def _dispatch(self, message: object) -> None:
        if not isinstance(message, dict):
            raise ProtocolError("a gateway message must be a JSON object")
        mtype = message.get("type")
        if mtype == "activations":
            # Validated even with no subscription to feed: a malformed
            # message ends the connection, it is not dropped in silence.
            activations = run_from_wire(message)
            if self.subscription is not None:
                for activation in activations:
                    self.subscription._push(activation)
            return
        if mtype == "paused":
            if self.subscription is not None:
                self.subscription._on_paused(message.get("sent", {}))
            return
        if mtype in ("subscribed", "pong", "error"):
            future = self._replies.pop(message.get("id"), None)
            if future is not None and not future.done():
                if mtype == "error":
                    future.set_exception(
                        NetworkError(
                            f"{message.get('code')}: {message.get('message')}"
                        )
                    )
                else:
                    future.set_result(message)
            return
        # Unknown server message: ignore (forward compatibility).

    def _finish(self) -> None:
        if self.subscription is not None:
            self.subscription._end()
        for future in self._replies.values():
            if not future.done():
                future.set_exception(NetworkError("connection closed"))
        self._replies.clear()
        for waiter in self._pong_waiters:
            if not waiter.done():
                waiter.set_exception(NetworkError("connection closed"))
        self._pong_waiters.clear()
        try:
            self._writer.close()
        except (ConnectionError, OSError):
            pass
