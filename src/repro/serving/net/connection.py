"""The TCP transport of the session runtime: framing, handshake, submits.

:class:`_Connection` is a :class:`~repro.serving.net.session.Session` that
speaks the length+CRC framed protocol of :mod:`repro.serving.net.protocol`:
it reads frames, negotiates capabilities in the ``hello``/``welcome``
handshake and routes ``submit`` / ``ddl`` / ``stats`` through the shared
request layer (:mod:`repro.serving.net.requests`).  Everything a
subscription *does* — attach, acks, watermarks, framing a delivery run, the
slow-consumer pause — is the session's; the handshake only decides whether
this peer takes a run as one ``activation_batch`` frame (it announced the
capability) or as one ``activation`` frame per fired trigger.

A client may pipeline submits.  Each is on its shard queue before the next
frame is read, so a pipelined burst executes as one micro-batch; the reader
yields to the loop's other connections every :data:`_YIELD_EVERY` frames and
stops reading while :data:`~repro.serving.net.session.REPLY_SLACK`
statements are unanswered, which keeps the replies of any client that reads
them inside the session's bounded out-queue.
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
from repro.serving.net.session import REPLY_SLACK, Session

__all__ = ["_Connection"]

#: Frames one connection dispatches before letting the loop run something
#: else.  Reading buffered frames and enqueueing their statements never
#: waits, so without this a deep pipeline would hold the loop until empty.
_YIELD_EVERY = 32


class _Connection(Session):
    """One TCP client: framed reader loop over the shared session."""

    transport = "net"
    bad_input = "bad-statement"
    ack_needs_subscription = True
    encode = staticmethod(encode_frame)

    def __init__(self, runtime, reader, writer) -> None:
        super().__init__(runtime, reader, writer)
        #: Statements submitted on this connection whose reply has not yet
        #: been written out.
        self._unanswered = 0
        self._answered = asyncio.Event()

    # ------------------------------------------------------------------ reading

    async def _read_loop(self) -> None:
        await self._handshake()
        frames = 0
        while True:
            while self._unanswered >= REPLY_SLACK:
                self._answered.clear()
                await self._answered.wait()
            message = await read_frame(self.reader, max_frame=self.front.max_frame)
            self.counters["frames_received"] += 1
            await self._dispatch(message)
            frames += 1
            if frames % _YIELD_EVERY == 0:
                await asyncio.sleep(0)

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
        self.run_frames = CAP_ACTIVATION_BATCH in caps
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
        self._unanswered += len(tickets)

        def answered() -> None:  # loop thread, once the reply has drained
            self._unanswered -= len(tickets)
            self._answered.set()

        def reply(resolved: asyncio.Future) -> None:  # loop thread
            error = resolved.exception()
            if error is not None:
                answer = {
                    "type": "error", "id": msg_id, "code": "execution", "message": str(error),
                }
            else:
                answer = {"type": "result", "id": msg_id, "results": resolved.result()}
            self.send(answer, after=answered)

        # No await: the connection keeps dispatching while tickets resolve.
        requests.ticket_results(tickets, self.runtime.wake_hub).add_done_callback(reply)

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
