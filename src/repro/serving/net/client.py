"""Asyncio client for the :mod:`repro.serving.net` wire protocol.

:class:`NetClient` is the in-process counterpart of
:class:`~repro.serving.net.netserver.NetworkServer`: it speaks the framed
protocol of :mod:`repro.serving.net.protocol` and exposes the serving
surface as awaitables — statements go out as constant wire records and come
back as result summaries, trigger DDL round-trips to ``ddl_ok`` replies, and
a subscription turns the connection into an activation stream consumed with
``async for``.

One background reader task demultiplexes everything arriving on the socket:
replies resolve per-request futures keyed by message id, ``activation``
frames feed the connection's :class:`NetSubscription`, and a ``paused``
frame (the server's slow-consumer policy) ends the stream with
:attr:`NetSubscription.paused` set — the consumer then acks what it
processed and calls :meth:`NetClient.subscribe` again (same name) to resume
from its durable cursor.  A typical resilient consumer is a loop::

    client = await NetClient.connect(host, port)
    subscription = await client.subscribe("audit", cursor=saved_cursor)
    async for activation in subscription:
        handle(activation)
        await client.ack(activation)

``examples/network_subscribers.py`` runs the full pattern end to end.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterable, Mapping, Sequence

from repro.errors import NetworkError, ProtocolError
from repro.relational.dml import Statement
from repro.serving.net.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    SUPPORTED_CAPS,
    activation_from_wire,
    decode_payload,
    encode_frame,
    negotiate_caps,
    read_frame,
    read_frame_payload,
    run_from_wire,
    statement_to_wire,
)
from repro.serving.subscribers import Activation

__all__ = ["NetClient", "NetSubscription"]

#: Sentinel queued into a subscription to mark end-of-stream (pause/close).
_STREAM_END = object()

#: Process-wide decode memo for server *push* frames, keyed by the frame's
#: CRC-verified payload bytes.  The server encodes a delivery run once and
#: writes the identical frame to every subscriber; a process
#: holding many subscriber connections receives those same bytes once per
#: connection, and this is the decode-side mirror of that shared encode
#: cache: one payload decode + one Activation materialization per distinct
#: frame.  Sharing the Activation objects across connections matches
#: in-process delivery, where every subscriber receives the same
#: (read-only) Activation instance.  Only fully validated activation pushes
#: are stored, so a cache hit can never skip a validation step.  Plain-dict
#: operations are GIL-atomic; the worst cross-loop race costs a duplicate
#: decode.
_PUSH_DECODE_CACHE: dict[bytes, tuple[bool, tuple[Activation, ...]]] = {}
_PUSH_DECODE_CACHE_LIMIT = 128


def _remember_push(payload: bytes, is_batch: bool,
                   activations: tuple[Activation, ...]) -> None:
    if len(_PUSH_DECODE_CACHE) >= _PUSH_DECODE_CACHE_LIMIT:
        _PUSH_DECODE_CACHE.pop(next(iter(_PUSH_DECODE_CACHE)))
    _PUSH_DECODE_CACHE[payload] = (is_batch, activations)


class NetSubscription:
    """The activation stream of one subscription, consumed asynchronously.

    Iterate (``async for``) or call :meth:`get`; the stream ends when the
    server pauses the subscription (slow consumer), the subscription's
    connection closes, or the server shuts down.  After the stream ends,
    :attr:`paused` tells a durable consumer whether to resume by
    re-subscribing under the same name.
    """

    def __init__(self, client: "NetClient", name: str, durable: bool) -> None:
        self.client = client
        #: Subscription name (server-assigned for anonymous subscriptions).
        self.name = name
        #: True when the subscription is backed by a durable cursor.
        self.durable = durable
        #: Set once the server sent a ``paused`` frame (re-subscribe to resume).
        self.paused = False
        #: The ``paused`` frame itself (e.g. its ``sent`` watermarks), if any.
        self.pause_info: dict | None = None
        #: Set once no further activations can arrive.
        self.ended = False
        self._queue: asyncio.Queue = asyncio.Queue()

    def _on_decoded(self, activation: Activation) -> None:
        self._queue.put_nowait(activation)

    def _on_paused(self, message: dict) -> None:
        self.paused = True
        self.pause_info = message
        self._end()

    def _end(self) -> None:
        if not self.ended:
            self.ended = True
            self._queue.put_nowait(_STREAM_END)

    async def get(self, timeout: float | None = None) -> Activation | None:
        """Next activation, or ``None`` once the stream has ended.

        With a ``timeout``, raises ``asyncio.TimeoutError`` if nothing
        arrives in time (the stream itself stays usable).
        """
        try:
            # Fast path: during a fan-out storm the queue is rarely empty,
            # and ``wait_for`` costs a wrapper task + timer per call.
            item = self._queue.get_nowait()
        except asyncio.QueueEmpty:
            if timeout is None:
                item = await self._queue.get()
            else:
                item = await asyncio.wait_for(self._queue.get(), timeout)
        if item is _STREAM_END:
            self._queue.put_nowait(_STREAM_END)  # keep the stream-end latched
            return None
        return item

    def __aiter__(self) -> AsyncIterator[Activation]:
        return self._iterate()

    async def _iterate(self) -> AsyncIterator[Activation]:
        while True:
            activation = await self.get()
            if activation is None:
                return
            yield activation


class NetClient:
    """One connection to a :class:`~repro.serving.net.netserver.NetworkServer`.

    Create with :meth:`connect` (performs the version handshake and starts
    the reader task); close with :meth:`close` or use as an async context
    manager.  All request methods may be called concurrently — replies are
    matched by message id.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._send_lock = asyncio.Lock()
        self._futures: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        #: Populated from the ``welcome`` frame (shard count, durability).
        self.server_info: dict = {}
        #: Capabilities negotiated with the server (the intersection of what
        #: both endpoints announced); ``activation_batch`` in here means the
        #: server sends each delivery run as one node-table frame.
        self.caps: frozenset[str] = frozenset()
        #: The connection's subscription, once :meth:`subscribe` succeeded.
        self.subscription: NetSubscription | None = None
        # Coalesced acks: highest pending position per shard, flushed by a
        # scheduled task or — to preserve ack-before-request ordering — by
        # the next outgoing request under the send lock.
        self._pending_acks: dict[int, int] = {}
        self._ack_flush_scheduled = False
        #: Ack frames actually written (after coalescing).
        self.acks_sent = 0
        #: Ack positions merged into an already-pending shard entry.
        self.acks_coalesced = 0
        #: ``activation_batch`` frames received.
        self.batches_received = 0

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        caps: Iterable[str] | None = None,
    ) -> "NetClient":
        """Open a connection, run the hello/welcome handshake.

        ``caps`` announces capabilities to the server (default: everything
        this client implementation speaks, currently ``activation_batch``).
        Pass ``caps=()`` to negotiate none — the server then sends one
        ``activation`` frame per fired trigger.
        """
        announce = sorted(SUPPORTED_CAPS if caps is None else caps)
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame=max_frame)
        try:
            await client._send(
                {"type": "hello", "version": PROTOCOL_VERSION, "caps": announce}
            )
            welcome = await read_frame(reader, max_frame=max_frame)
            if welcome["type"] == "error":
                raise NetworkError(
                    f"server refused the connection: {welcome.get('message')}"
                )
            if welcome["type"] != "welcome":
                raise ProtocolError(
                    f"expected a welcome frame, got {welcome['type']!r}"
                )
            if welcome.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: server {welcome.get('version')!r}"
                )
        except BaseException:
            writer.close()
            raise
        client.server_info = dict(welcome.get("server") or {})
        client.caps = negotiate_caps(welcome.get("caps")).intersection(announce)
        client._reader_task = asyncio.ensure_future(client._reader_loop())
        return client

    async def close(self) -> None:
        """Close the connection; pending requests fail with NetworkError."""
        if self._closed:
            return
        # A consumer that acked its last activations and closed must not
        # lose those cursor advances to coalescing: flush before teardown.
        if self._pending_acks:
            try:
                await self._flush_acks()
            except (ConnectionError, OSError, NetworkError):
                pass
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._finish(NetworkError("client closed"))

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ plumbing

    async def _send(self, message: dict) -> None:
        async with self._send_lock:
            # Pending acks always precede the next request on the wire, so
            # coalescing can never reorder an ack past a later ping/submit
            # (the flush barrier semantics durable consumers rely on).
            self._write_pending_acks()
            self._writer.write(encode_frame(message))
            await self._writer.drain()

    def _write_pending_acks(self) -> None:
        # Send-lock held by the caller.
        if not self._pending_acks:
            return
        pending, self._pending_acks = self._pending_acks, {}
        for shard in sorted(pending):
            self._writer.write(
                encode_frame({"type": "ack", "shard": shard, "seq": pending[shard]})
            )
            self.acks_sent += 1

    async def _flush_acks(self) -> None:
        async with self._send_lock:
            self._write_pending_acks()
            await self._writer.drain()

    async def _flush_acks_quietly(self) -> None:
        # A broken transport loses nothing: unacked positions are exactly
        # what a durable resume redelivers (at-least-once).
        try:
            await self._flush_acks()
        except (ConnectionError, OSError):
            pass

    def _schedule_ack_flush(self) -> None:
        if self._ack_flush_scheduled or self._closed:
            return
        self._ack_flush_scheduled = True

        def spawn() -> None:
            self._ack_flush_scheduled = False
            if not self._closed and self._pending_acks:
                asyncio.ensure_future(self._flush_acks_quietly())

        asyncio.get_running_loop().call_soon(spawn)

    async def _request(self, message: dict) -> dict:
        if self._closed:
            raise NetworkError("client is closed")
        self._next_id += 1
        msg_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[msg_id] = future
        try:
            await self._send({**message, "id": msg_id})
            return await future
        finally:
            self._futures.pop(msg_id, None)

    async def _reader_loop(self) -> None:
        error: Exception = NetworkError("connection closed by the server")
        try:
            while True:
                payload_bytes = await read_frame_payload(
                    self._reader, max_frame=self._max_frame
                )
                cached = _PUSH_DECODE_CACHE.get(payload_bytes)
                if cached is not None:
                    is_batch, activations = cached
                    if is_batch:
                        self.batches_received += 1
                    if self.subscription is not None:
                        for activation in activations:
                            self.subscription._on_decoded(activation)
                    continue
                message = decode_payload(payload_bytes)
                mtype = message["type"]
                if mtype == "activation":
                    activation = activation_from_wire(message.get("payload"))
                    _remember_push(payload_bytes, False, (activation,))
                    if self.subscription is not None:
                        self.subscription._on_decoded(activation)
                elif mtype == "activation_batch":
                    # Strictly validated even when no subscription is live:
                    # a malformed frame is a protocol error, not a silent
                    # drop.  Each distinct node text is parsed once.
                    activations = tuple(run_from_wire(message))
                    self.batches_received += 1
                    _remember_push(payload_bytes, True, activations)
                    if self.subscription is not None:
                        for activation in activations:
                            self.subscription._on_decoded(activation)
                elif mtype == "paused":
                    if self.subscription is not None:
                        self.subscription._on_paused(message)
                elif mtype == "error" and message.get("id") is None:
                    # Connection-fatal server error (protocol violation we
                    # sent, or server shutdown): the close follows.
                    error = NetworkError(
                        f"server error [{message.get('code')}]: "
                        f"{message.get('message')}"
                    )
                else:
                    future = self._futures.get(message.get("id"))
                    if future is not None and not future.done():
                        if mtype == "error":
                            future.set_exception(
                                NetworkError(
                                    f"request failed [{message.get('code')}]: "
                                    f"{message.get('message')}"
                                )
                            )
                        else:
                            future.set_result(message)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except ProtocolError as protocol_error:
            error = protocol_error
        except asyncio.CancelledError:
            error = NetworkError("client closed")
        finally:
            self._finish(error)

    def _finish(self, error: Exception) -> None:
        for future in list(self._futures.values()):
            if not future.done():
                future.set_exception(error)
        self._futures.clear()
        if self.subscription is not None:
            self.subscription._end()

    # ------------------------------------------------------------------ DML

    async def execute(self, statement: Statement) -> list[dict]:
        """Submit one statement; returns its per-shard result summaries."""
        reply = await self._request(
            {"type": "submit", "statements": [statement_to_wire(statement)]}
        )
        return reply["results"][0]

    async def execute_batch(
        self, statements: Sequence[Statement]
    ) -> list[list[dict]]:
        """Submit statements in order within one request.

        Returns one list of per-shard result summaries per statement.  The
        statements are applied in order with respect to each other, so this
        is the high-throughput path for workload streams.
        """
        reply = await self._request(
            {
                "type": "submit",
                "statements": [statement_to_wire(s) for s in statements],
            }
        )
        return reply["results"]

    # ------------------------------------------------------------------ DDL

    async def create_trigger(self, source: str) -> str:
        """CREATE TRIGGER from source text; returns the trigger's name."""
        reply = await self._request(
            {"type": "ddl", "op": "create_trigger", "source": source}
        )
        return reply["names"][0]

    async def register_triggers_bulk(self, sources: Iterable[str]) -> list[str]:
        """Register a batch of triggers (one parse, shared analyses)."""
        reply = await self._request(
            {
                "type": "ddl",
                "op": "register_triggers_bulk",
                "sources": list(sources),
            }
        )
        return list(reply["names"])

    async def drop_trigger(self, name: str) -> None:
        await self._request({"type": "ddl", "op": "drop_trigger", "name": name})

    async def drop_view(self, name: str) -> None:
        await self._request({"type": "ddl", "op": "drop_view", "name": name})

    # ------------------------------------------------------------------ streaming

    async def subscribe(
        self,
        name: str | None = None,
        *,
        view: str | None = None,
        path: Sequence[str] | None = None,
        cursor: Mapping[int, int] | None = None,
    ) -> NetSubscription:
        """Open this connection's activation stream.

        ``name`` makes the subscription durable on a durable server:
        acknowledged positions persist, and a later subscribe under the same
        name (this connection after a pause, or a fresh one after a crash)
        resumes from the cursor with every unacknowledged activation
        redelivered from the outbox.  ``cursor`` explicitly fast-forwards
        the cursor before the backlog is computed.  ``view`` / ``path``
        filter the stream server-side.
        """
        if self.subscription is not None and not self.subscription.ended:
            raise NetworkError("this connection already has an active subscription")
        message: dict = {"type": "subscribe", "name": name}
        if view is not None:
            message["view"] = view
        if path is not None:
            message["path"] = list(path)
        if cursor is not None:
            message["cursor"] = {int(k): int(v) for k, v in cursor.items()}
        # Install the stream *before* the request goes out: the server may
        # push a redelivered backlog ahead of (or right behind) the
        # ``subscribed`` reply, and those frames must land in the queue, not
        # race the reply through a still-unset subscription slot.
        subscription = NetSubscription(self, name or "", False)
        self.subscription = subscription
        try:
            reply = await self._request(message)
        except BaseException:
            self.subscription = None
            raise
        subscription.name = reply["name"]
        subscription.durable = bool(reply.get("durable"))
        return subscription

    async def ack(self, activation: Activation) -> None:
        """Acknowledge an activation (advances the durable cursor)."""
        await self.ack_position(activation.shard, activation.sequence)

    async def ack_position(self, shard: int, sequence: int) -> None:
        """Acknowledge by ``(shard, sequence)`` position (fire-and-forget).

        Acks **coalesce**: positions accumulate per shard (the cursor is a
        monotonic high-water mark, so only the highest matters) and flush as
        one ack frame per shard on the next event-loop turn — or earlier,
        ahead of any outgoing request.  A consumer draining a burst of
        activations therefore sends one ack frame per shard, not one per
        activation; :meth:`close` flushes whatever is still pending.
        """
        if self._closed:
            raise NetworkError("client is closed")
        if shard in self._pending_acks:
            self.acks_coalesced += 1
            if sequence > self._pending_acks[shard]:
                self._pending_acks[shard] = sequence
        else:
            self._pending_acks[shard] = sequence
        self._schedule_ack_flush()

    # ------------------------------------------------------------------ misc

    async def stats(self) -> dict:
        """The server's evaluation report, shard stats, and net counters."""
        reply = await self._request({"type": "stats"})
        return {key: value for key, value in reply.items() if key not in ("type", "id")}

    async def ping(self) -> None:
        """Round-trip liveness check."""
        await self._request({"type": "ping"})
