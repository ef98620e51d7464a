"""HTTP + WebSocket gateway over the serving layer — stdlib only.

:class:`WebGateway` packages the same surface as the TCP front end
(:mod:`repro.serving.net`) for web-native consumers: REST endpoints for DML
submission (single and batch, with per-statement results), trigger DDL
including bulk registration, and server statistics; and WebSocket
subscription streams carrying JSON-encoded activations with server-side
view/path filters, client acks, and durable resumable cursors.

Only the bytes are the gateway's own.  It runs on the front ends' one event
loop (:mod:`repro.serving.net.loops`), REST bodies are answered by the
shared request layer (:mod:`repro.serving.net.requests`), and a WebSocket
session *is* a :class:`~repro.serving.net.session.Session` — so the
delivery discipline holds by construction: shard workers never block, each subscription buffers
at most ``send_buffer`` undrained activations, a slow consumer is
**paused** (detach → flush → terminal ``paused`` message with per-shard
sent watermarks) rather than blocked or silently dropped, and a durable
resume fast-forwards the persisted cursor before re-subscribing.

One delivery run — what a shard micro-batch fired, as one ``activations``
message of a node table plus rows, a run of one included — is JSON-encoded
(and WebSocket-framed) **once** via
:class:`~repro.serving.web.webframes.JsonFrameCache`; server→client frames
are unmasked per RFC 6455, which is exactly what makes the bytes shareable
across subscribers.

Endpoints (all request/response bodies JSON):

========  ======================  =============================================
method    path                    action
========  ======================  =============================================
POST      ``/v1/submit``          one statement → its per-part results
POST      ``/v1/submit-batch``    statement list → per-statement result lists
POST      ``/v1/triggers``        ``source`` (one) or ``sources`` (bulk DDL)
DELETE    ``/v1/triggers/<name>`` drop a trigger
DELETE    ``/v1/views/<name>``    drop a view
GET       ``/v1/stats``           evaluation/shard/queue/web/durability stats
GET       ``/ws``                 WebSocket upgrade → subscription session
========  ======================  =============================================

``docs/networking.md`` ("Web gateway") documents the JSON message schema
and the two places the WebSocket stream deliberately differs from TCP.
"""

from __future__ import annotations

import asyncio
import base64
import json
from typing import Any

from repro.errors import ProtocolError
from repro.persist.durable import DurableServer
from repro.serving.net import requests
from repro.serving.net.loops import FrontEnd
from repro.serving.net.session import Session
from repro.serving.server import ActiveViewServer
from repro.serving.web import wsproto
from repro.serving.web.http import (
    DEFAULT_MAX_BODY,
    DEFAULT_MAX_HEADER,
    HttpError,
    HttpRequest,
    error_response,
    json_response,
    read_request,
    response_bytes,
)
from repro.serving.web.webframes import JsonFrameCache, text_frame

__all__ = ["WebGateway"]

#: How long a REST submit waits for its tickets before giving up (seconds).
_SUBMIT_TIMEOUT = 60.0

#: What the shared frame counters are called in :meth:`WebGateway.web_report`
#: (REST responses are counted separately, as ``responses_sent``).
_WS_COUNTER_NAMES = {
    "frames_received": "ws_messages_received",
    "frames_sent": "ws_frames_sent",
    "bytes_sent": "ws_bytes_sent",
}


class _WsSession(Session):
    """One WebSocket subscription stream: RFC 6455 frames, JSON text."""

    transport = "web"
    bad_input = "bad-request"
    ack_needs_subscription = False
    encode = staticmethod(text_frame)

    async def _read_loop(self) -> None:
        ws_reader = wsproto.WsReader(
            self.reader,
            require_mask=True,
            max_message=self.front.max_ws_message,
        )
        while True:
            opcode, payload = await ws_reader.next_message()
            self.counters["frames_received"] += 1
            if opcode == wsproto.OP_CLOSE:
                # Echo the close and stop reading; anything the peer
                # pipelined after its close frame is intentionally not
                # processed (acks already handled above took effect).
                self.send(wsproto.encode_close())
                return
            if opcode == wsproto.OP_PING:
                self.send(wsproto.encode_frame(wsproto.OP_PONG, payload))
            elif opcode != wsproto.OP_PONG:
                await self._dispatch_text(opcode, payload)

    def _protocol_error(self, error: ProtocolError) -> None:
        self.send(
            wsproto.encode_close(wsproto.CLOSE_PROTOCOL_ERROR, str(error)[:80])
        )

    async def _dispatch_text(self, opcode: int, payload: bytes) -> None:
        if opcode != wsproto.OP_TEXT:
            raise ProtocolError("subscription messages must be TEXT frames")
        try:
            message = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(f"message is not JSON: {error}")
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError("message must be an object with a 'type'")
        mtype = message["type"]
        if mtype == "subscribe":
            await self._handle_subscribe(message.get("id"), message)
        elif mtype == "ack":
            self._handle_ack(message)
        elif mtype == "ping":
            self.send({"type": "pong", "id": message.get("id")})
        else:
            raise ProtocolError(f"unknown message type {mtype!r}")


class WebGateway(FrontEnd):
    """HTTP + WebSocket front end for an :class:`ActiveViewServer`.

    Parameters
    ----------
    server:
        The serving stack to expose.  A :class:`DurableServer` enables
        named WebSocket subscriptions with resumable cursors; on a plain
        server, subscriptions are live-only and cursors are refused.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    send_buffer:
        Per-subscription bound on activations buffered toward one client;
        crossing it pauses the subscription (never blocks a shard worker,
        never drops silently).
    max_header, max_body, max_ws_message:
        Hard caps on the HTTP header block, REST request bodies, and one
        reassembled WebSocket message, all enforced before buffering.
    write_buffer_limit:
        Optional transport high-water mark (bytes); a low value makes
        ``drain()`` track the consumer's real pace, so slow-consumer
        detection is prompt (tests use this).
    """

    extra_counters = ("requests_received", "responses_sent", "ws_upgrades")

    def __init__(
        self,
        server: ActiveViewServer | DurableServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        send_buffer: int = 256,
        max_header: int = DEFAULT_MAX_HEADER,
        max_body: int = DEFAULT_MAX_BODY,
        max_ws_message: int = wsproto.DEFAULT_MAX_MESSAGE,
        write_buffer_limit: int | None = None,
    ) -> None:
        super().__init__(
            server, host=host, port=port, send_buffer=send_buffer,
            write_buffer_limit=write_buffer_limit,
        )
        self.max_header = max_header
        self.max_body = max_body
        self.max_ws_message = max_ws_message
        # The stream limit bounds ``readuntil`` (the header block read);
        # frame payload reads use ``readexactly`` and budget themselves.
        self.stream_limit = max_header + 1024
        #: One JSON encode + WebSocket frame per delivery run, shared.
        self.frame_cache = JsonFrameCache(max_frame=max_ws_message)

    # ---------------------------------------------------------------- serving

    async def _serve_connection(self, reader, writer) -> None:
        counters = self.counters
        while True:
            try:
                request = await read_request(
                    reader, max_header=self.max_header, max_body=self.max_body
                )
            except HttpError as error:
                counters["protocol_errors"] += 1
                writer.write(error_response(error.status, str(error)))
                await writer.drain()
                return
            if request is None:
                return
            counters["requests_received"] += 1
            if "upgrade" in request.header("connection").lower() \
                    and request.header("upgrade").lower() == "websocket":
                refusal = self._refuse_upgrade(request)
                if refusal is not None:
                    counters["protocol_errors"] += 1
                    writer.write(error_response(*refusal))
                    await writer.drain()
                    return
                writer.write(
                    response_bytes(
                        101,
                        extra_headers={
                            "Upgrade": "websocket",
                            "Connection": "Upgrade",
                            "Sec-WebSocket-Accept": wsproto.accept_key(
                                request.header("sec-websocket-key")
                            ),
                        },
                    )
                )
                await writer.drain()
                counters["ws_upgrades"] += 1
                await _WsSession(self, reader, writer).run()
                return  # the session consumed the connection
            writer.write(await self._route(request))
            await writer.drain()
            counters["responses_sent"] += 1
            if not request.keep_alive:
                return

    @staticmethod
    def _refuse_upgrade(request: HttpRequest) -> tuple[int, str] | None:
        """Why a WebSocket upgrade request cannot proceed, if it cannot."""
        if request.path != "/ws":
            return 404, f"no WebSocket endpoint at {request.path}"
        if request.method != "GET":
            return 405, "WebSocket upgrade must be a GET"
        if request.header("sec-websocket-version") != "13":
            return 426, "only WebSocket version 13 is supported"
        if not _valid_ws_key(request.header("sec-websocket-key")):
            return 400, "missing or malformed Sec-WebSocket-Key"
        return None

    # ---------------------------------------------------------------- routing

    async def _route(self, request: HttpRequest) -> bytes:
        try:
            return json_response(await self._answer(request))
        except ProtocolError as error:
            # Malformed input; an HttpError carries a more specific status.
            self.counters["protocol_errors"] += 1
            return error_response(
                getattr(error, "status", 400), str(error), keep_alive=True
            )
        except Exception as error:  # noqa: BLE001 - surfaced, never a crash
            return error_response(500, str(error), keep_alive=True)

    async def _answer(self, request: HttpRequest) -> dict:
        """The JSON body answering one REST request."""
        method, path = request.method, request.path
        if method == "GET" and path == "/v1/stats":
            return requests.stats_body(
                self.core, self.durable, web=self.web_report()
            )
        for prefix, op in (
            ("/v1/triggers/", "drop_trigger"), ("/v1/views/", "drop_view")
        ):
            if method == "DELETE" and path.startswith(prefix):
                name = path[len(prefix):]
                if not name:
                    raise HttpError(400, f"name missing from path {path}")
                return {"names": await requests.run_ddl(
                    self.core, op, {"name": name}
                )}
        if method != "POST" or path not in (
            "/v1/submit", "/v1/submit-batch", "/v1/triggers"
        ):
            raise HttpError(404, f"no route for {method} {path}")
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        if path == "/v1/triggers":
            one = payload.get("source") is not None
            if one == (payload.get("sources") is not None):
                raise HttpError(
                    400, "provide exactly one of 'source' or 'sources'"
                )
            op = "create_trigger" if one else "register_triggers_bulk"
            return {"names": await requests.run_ddl(self.core, op, payload)}
        if path == "/v1/submit":
            results = await self._submit([payload.get("statement")])
            return {"results": results[0]}
        return {"results": await self._submit(payload.get("statements"))}

    async def _submit(self, records: Any) -> list[list[dict]]:
        tickets = await requests.submit(self.core, records)
        self.counters["statements_submitted"] += len(tickets)
        results = requests.ticket_results(tickets, self.wake_hub)
        # One timer on the future the tickets resolve: a REST submit's round
        # trip is the caller's whole latency, so no waiter task around it.
        timer = self.loop.call_later(_SUBMIT_TIMEOUT, _expire, results)
        try:
            return await results
        finally:
            timer.cancel()

    # ---------------------------------------------------------------- reporting

    def web_report(self) -> dict:
        """Wire-encodable counters plus per-subscription detail."""
        return {
            **{_WS_COUNTER_NAMES.get(k, k): v for k, v in self._report().items()},
            "ws_sessions_active": len(self.sessions),
        }


def _expire(results: asyncio.Future) -> None:
    if not results.done():
        results.set_exception(TimeoutError("statement still pending after timeout"))


def _valid_ws_key(key: str) -> bool:
    if not key:
        return False
    try:
        return len(base64.b64decode(key, validate=True)) == 16
    except (ValueError, TypeError):
        return False
