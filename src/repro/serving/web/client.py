"""Asyncio HTTP + WebSocket clients for the web gateway — stdlib only.

:class:`WebClient` is a keep-alive HTTP/1.1 client for the REST surface
(submit, DDL, stats); :class:`WsClient` performs the RFC 6455 upgrade and
is the JSON codec of the TCP client's session
(:class:`~repro.serving.net.client.ClientSession`): the same
:class:`~repro.serving.net.client.SubscriptionStream`, coalesced acks,
``ping`` and error texts.  Both exist for the test suites, the example
walkthrough, and the fan-out benchmark; a browser or any off-the-shelf
WebSocket library is an equally valid peer (the wire format is documented
in ``docs/networking.md``).
"""

from __future__ import annotations

import asyncio
import base64
import json
import os

from repro.errors import NetworkError, ProtocolError
from repro.relational.dml import Statement
from repro.serving.net.client import ClientSession
from repro.serving.net.protocol import statement_to_wire
from repro.serving.web import wsproto
from repro.serving.web.http import DEFAULT_MAX_HEADER

__all__ = ["GatewayError", "WebClient", "WsClient"]


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


class WsClient(ClientSession):
    """WebSocket client for the gateway's subscription endpoint.

    The JSON codec of :class:`~repro.serving.net.client.ClientSession`:
    requests, the stream, acks and ``ping`` are the TCP client's; this class
    adds the HTTP upgrade, masked text frames, the ping/pong/close control
    frames and :meth:`ws_ping`.
    """

    _run_type = "activations"

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        *, max_message: int,
    ) -> None:
        super().__init__(writer)
        self._ws = wsproto.WsReader(
            reader, require_mask=False, max_message=max_message
        )
        self._pong_waiters: list[asyncio.Future] = []

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
        client = cls(reader, writer, max_message=max_message)
        client._reader_task = asyncio.ensure_future(client._reader_loop())
        return client

    def _encode(self, message: dict) -> bytes:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        return wsproto.encode_frame(wsproto.OP_TEXT, body, mask=True)

    async def _read_message(self) -> dict | None:
        while True:
            opcode, payload = await self._ws.next_message()
            if opcode == wsproto.OP_CLOSE:
                if not self._closed:
                    self._writer.write(wsproto.encode_close(mask=True))
                return None
            if opcode == wsproto.OP_PING:
                self._writer.write(
                    wsproto.encode_frame(wsproto.OP_PONG, payload, mask=True)
                )
            elif opcode == wsproto.OP_PONG:
                while self._pong_waiters:
                    waiter = self._pong_waiters.pop(0)
                    if not waiter.done():
                        waiter.set_result(payload)
            else:
                try:
                    message = json.loads(payload.decode("utf-8"))
                except ValueError as error:
                    raise ProtocolError(f"a gateway message is not JSON: {error}")
                if not isinstance(message, dict):
                    raise ProtocolError("a gateway message must be a JSON object")
                return message

    async def _stop_reading(self) -> None:
        try:
            self._writer.write(wsproto.encode_close(mask=True))
            await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        # The reader loop exits on the close reply (or EOF); bound the wait
        # so a dead peer can't hang us.
        try:
            await asyncio.wait_for(self._reader_task, timeout=5)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._reader_task.cancel()

    def _finish(self, error: Exception) -> None:
        super()._finish(error)
        for waiter in self._pong_waiters:
            if not waiter.done():
                waiter.set_exception(error)
        self._pong_waiters.clear()

    async def ws_ping(self, payload: bytes = b"") -> bytes:
        """Protocol-level ping; resolves with the pong payload."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pong_waiters.append(future)
        self._writer.write(
            wsproto.encode_frame(wsproto.OP_PING, payload, mask=True)
        )
        await self._writer.drain()
        return await future
