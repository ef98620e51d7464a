"""The TCP transport of the session runtime: framing, handshake, batching.

:class:`_Connection` is a :class:`~repro.serving.net.session.Session` that
speaks the length+CRC framed protocol of :mod:`repro.serving.net.protocol`:
it reads frames, negotiates capabilities in the ``hello``/``welcome``
handshake, routes ``submit`` / ``ddl`` / ``stats`` through the shared
request layer (:mod:`repro.serving.net.requests`), and shapes activation
delivery.  Everything a subscription *does* — attach, acks, watermarks, the
slow-consumer pause — is the session's.

Activation delivery has two shapes, chosen per connection at handshake:

* **single-frame** — one ``activation`` frame per fired trigger (the only
  shape an un-upgraded client ever sees);
* **batched** — for clients that negotiated the ``activation_batch``
  capability, pending activations coalesce into one length+CRC frame,
  bounded by a count budget, a byte budget, and a linger deadline
  (:class:`~repro.serving.net.netserver.NetworkServer` parameters).  A
  batch of one degenerates to the plain single frame, so the shared encode
  cache is hit either way.  A pending batch counts as buffered: it flushes
  before a ``paused`` frame and on cleanup.
"""

from __future__ import annotations

import asyncio

from repro.errors import ProtocolError, ServingError
from repro.serving.net import requests
from repro.serving.net.protocol import (
    CAP_ACTIVATION_BATCH,
    PROTOCOL_VERSION,
    encode_frame,
    negotiate_caps,
    read_frame,
)
from repro.serving.net.session import Session
from repro.serving.subscribers import Activation

__all__ = ["_Connection"]


class _Connection(Session):
    """One TCP client: framed reader loop over the shared session."""

    transport = "net"
    bad_input = "bad-statement"
    ack_needs_subscription = True
    encode = staticmethod(encode_frame)

    def __init__(self, runtime, reader, writer) -> None:
        super().__init__(runtime, reader, writer)
        #: True once the peer negotiated ``activation_batch`` *and* the
        #: server has batching enabled; otherwise every activation travels
        #: as its own frame, exactly as before the capability existed.
        self.batching = False
        self._pending_batch: list[Activation] = []
        self._pending_bytes = 0
        self._linger_handle: asyncio.TimerHandle | None = None
        if self.front.batch_eager_flush:
            # The run is over — nothing more is coming in *this* wakeup, so
            # flush now rather than paying the linger for a burst that has
            # already ended.
            self._run_end = self._flush

    # ------------------------------------------------------------------ reading

    async def _read_loop(self) -> None:
        await self._handshake()
        while True:
            message = await read_frame(self.reader, max_frame=self.front.max_frame)
            self.counters["frames_received"] += 1
            await self._dispatch(message)

    def _protocol_error(self, error: ProtocolError) -> None:
        self.send_error(None, "protocol", str(error))

    async def _handshake(self) -> None:
        try:
            hello = await read_frame(self.reader, max_frame=self.front.max_frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            raise ProtocolError("connection closed before the hello frame")
        if hello["type"] != "hello":
            raise ProtocolError(f"expected a hello frame, got {hello['type']!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client {hello.get('version')!r}, "
                f"server {PROTOCOL_VERSION}"
            )
        caps = negotiate_caps(hello.get("caps"))
        if not self.front.batching:
            caps = caps - {CAP_ACTIVATION_BATCH}
        self.batching = CAP_ACTIVATION_BATCH in caps
        self.send(
            {
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "caps": sorted(caps),
                "server": {
                    "shards": self.front.core.shard_count,
                    "durable": self.front.durable is not None,
                    "loops": self.front.loops,
                },
            }
        )

    # ------------------------------------------------------------------ dispatch

    async def _dispatch(self, message: dict) -> None:
        mtype = message["type"]
        if mtype == "ack":
            self._handle_ack(message)
            return
        if mtype not in ("submit", "ddl", "subscribe", "stats", "ping"):
            raise ProtocolError(f"unknown message type {mtype!r}")
        msg_id = message.get("id")
        if not isinstance(msg_id, int):
            raise ProtocolError(f"{mtype!r} message needs an integer 'id'")
        if mtype == "submit":
            await self._handle_submit(msg_id, message)
        elif mtype == "ddl":
            await self._handle_ddl(msg_id, message)
        elif mtype == "subscribe":
            await self._handle_subscribe(msg_id, message)
        elif mtype == "stats":
            self.send(
                {
                    "type": "stats_reply",
                    "id": msg_id,
                    **requests.stats_body(
                        self.front.core, self.front.durable,
                        net=self.front.net_report(),
                    ),
                }
            )
        else:
            self.send({"type": "pong", "id": msg_id})

    async def _handle_submit(self, msg_id: int, message: dict) -> None:
        try:
            tickets = await requests.submit(
                self.front.core, message.get("statements")
            )
        except ProtocolError as error:
            self.send_error(msg_id, self.bad_input, str(error))
            return
        except ServingError as error:
            # Statements already queued still execute; the client sees this
            # request fail.
            self.send_error(msg_id, "state", str(error))
            return
        except Exception as error:  # noqa: BLE001 - routing errors etc.
            self.send_error(msg_id, "execution", str(error))
            return
        self.counters["statements_submitted"] += len(tickets)

        def reply(resolved: asyncio.Future) -> None:  # loop thread
            error = resolved.exception()
            if error is not None:
                self.send_error(msg_id, "execution", str(error))
            else:
                self.send(
                    {"type": "result", "id": msg_id, "results": resolved.result()}
                )

        # No await: the connection keeps dispatching while tickets resolve.
        requests.ticket_results(tickets).add_done_callback(reply)

    async def _handle_ddl(self, msg_id: int, message: dict) -> None:
        try:
            names = await requests.run_ddl(
                self.front.core, message.get("op"), message
            )
        except ProtocolError as error:
            self.send_error(msg_id, self.bad_input, str(error))
            return
        except Exception as error:  # noqa: BLE001 - trigger/translation errors
            self.send_error(msg_id, "execution", str(error))
            return
        self.send({"type": "ddl_ok", "id": msg_id, "names": names})

    # ------------------------------------------------------------------ batching

    def _emit(self, activation: Activation) -> None:  # loop thread
        if not self.batching:
            super()._emit(activation)
            return
        # The byte budget is checked *before* appending so one flush never
        # exceeds it (and therefore never exceeds max_frame); the count
        # budget is checked after.
        size = self.front.frame_cache.frame_size(activation)
        if self._pending_batch and (
            self._pending_bytes + size > self.front.batch_max_bytes
        ):
            self._flush()
        self._pending_batch.append(activation)
        self._pending_bytes += size
        if len(self._pending_batch) >= self.front.batch_max_count:
            self._flush()
        elif self._linger_handle is None:
            self._linger_handle = self.runtime.loop.call_later(
                self.front.batch_linger, self._flush
            )

    def _flush(self) -> None:  # loop thread
        if self._linger_handle is not None:
            self._linger_handle.cancel()
            self._linger_handle = None
        pending = self._pending_batch
        if not pending:
            return
        self._pending_batch = []
        self._pending_bytes = 0
        if len(pending) == 1:
            super()._emit(pending[0])
            return
        frame, hit = self.front.frame_cache.batch_frame(tuple(pending))
        count = len(pending)
        self.counters["activation_batches_sent"] += 1
        self.counters["batched_activations_sent"] += count
        self._count_cache(hit)
        subscriber = self.subscriber
        self.send(
            frame,
            after=(lambda: subscriber.release(count)) if subscriber is not None else None,
        )
