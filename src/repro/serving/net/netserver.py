"""Asyncio network front end over the sharded serving layer.

:class:`NetworkServer` puts a socket on an
:class:`~repro.serving.server.ActiveViewServer` (or a
:class:`~repro.persist.durable.DurableServer`): clients connect over TCP,
speak the framed protocol of :mod:`repro.serving.net.protocol`, and get the
full serving surface — DML submission (single and batch, with ticket-style
``result`` replies), trigger DDL including bulk registration, activation
subscriptions with resumable cursors, and server statistics.

The front end runs one asyncio event loop on one daemon thread
(:mod:`repro.serving.net.loops`).  Each connection costs a reader coroutine
and a writer coroutine, not a thread, which is what makes connection-scale
fan-out (10k+ subscribers) reachable, and one encode of a delivery run
(:class:`~repro.serving.net.frames.SharedFrameCache`) serves every
connection handed the same activations.

Bridging the thread world and the loop, backpressured both ways (the
details live in :mod:`repro.serving.net.session` and
:mod:`repro.serving.net.requests`):

* **DML inbound** — a connection's statements go from its read loop
  straight onto the shard queues, in arrival order, so a pipelined burst
  runs as one micro-batch; only a full shard queue moves that statement's
  enqueue to a worker thread, which blocks that connection's dispatch loop
  and never the event loop.
* **Activations outbound** — each subscription's ``_offer_many`` never
  blocks the shard worker: it reserves the bundle's slots of the
  connection's bounded send buffer and hands the run to the loop, which
  frames it once — one ``activation_batch`` (node table plus rows), a run
  of one included, split only at half of ``max_frame``; slots release only
  after the frame drains.  A slow consumer **pauses**: detach, terminal
  ``paused`` frame behind everything already framed, durable resume via
  the persisted cursor.

``docs/networking.md`` is the protocol reference;
``tests/serving/test_net_protocol_fuzz.py`` pins the no-crash guarantee and
the ``tcp`` cases of ``tests/property/test_property_delivery.py`` pin
delivery equivalence against the in-process subscriber oracle, whole runs
and byte-budget splits.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.persist.durable import DurableServer
from repro.serving.net.connection import _Connection
from repro.serving.net.frames import SharedFrameCache
from repro.serving.net.loops import FrontEnd
from repro.serving.net.protocol import DEFAULT_MAX_FRAME
from repro.serving.server import ActiveViewServer

__all__ = ["NetworkServer"]


class NetworkServer(FrontEnd):
    """TCP front end for an :class:`ActiveViewServer` / :class:`DurableServer`.

    Parameters
    ----------
    server:
        The serving stack to expose.  A :class:`DurableServer` additionally
        enables named subscriptions with resumable cursors (the durable
        outbox is the replay substrate); on a plain server, subscriptions
        are live-only.
    host, port:
        Bind address.  ``port=0`` (default) picks an ephemeral port; read
        :attr:`address` after :meth:`start`.
    loops:
        Accepted only as ``1``; any other value raises
        :class:`~repro.errors.NetworkError`.
    max_frame:
        Per-frame payload cap, enforced before any payload is read —
        configurable on both endpoints.  A delivery run that would encode
        to more than half of it is split into several frames.
    send_buffer:
        Per-subscription bound on activations buffered toward one client
        (handed to the loop but not yet drained).  Crossing it pauses the
        subscription — see the module docstring's slow-consumer policy.
    """

    def __init__(
        self,
        server: ActiveViewServer | DurableServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        loops: int = 1,
        max_frame: int = DEFAULT_MAX_FRAME,
        send_buffer: int = 256,
        write_buffer_limit: int | None = None,
    ) -> None:
        super().__init__(
            server, host=host, port=port, send_buffer=send_buffer,
            write_buffer_limit=write_buffer_limit,
        )
        # The keyword stays only because benchmarks/e2e/serve.py passes
        # loops=1; the front end runs one event loop.
        if loops != 1:
            raise NetworkError("NetworkServer runs one event loop: loops must be 1")
        self.max_frame = max_frame
        #: One encode per delivery run, shared by every connection.
        self.frame_cache = SharedFrameCache(max_frame=max_frame)

    async def _serve_connection(self, reader, writer) -> None:
        await _Connection(self, reader, writer).run()

    def net_report(self) -> dict:
        """Wire-encodable counters + per-subscription detail."""
        report = self._report()
        # A one-row ``per_loop`` stays only because benchmarks/e2e/serving.py
        # reads its wake-up counters from ``per_loop[0]``.
        report["per_loop"] = [
            {"wake_posts": report["wake_posts"], "wake_wakeups": report["wake_wakeups"]}
        ]
        return report
