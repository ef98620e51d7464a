"""Asyncio network front end over the sharded serving layer.

:class:`NetworkServer` puts a socket on an
:class:`~repro.serving.server.ActiveViewServer` (or a
:class:`~repro.persist.durable.DurableServer`): clients connect over TCP,
speak the framed protocol of :mod:`repro.serving.net.protocol`, and get the
full serving surface — DML submission (single and batch, with ticket-style
``result`` replies), trigger DDL including bulk registration, activation
subscriptions with resumable cursors, and server statistics.

The front end is a **loop group** (:mod:`repro.serving.net.loops`):
``loops`` asyncio event loops, each on its own daemon thread, each owning
its connections outright — no state is shared between loops except the
:class:`~repro.serving.net.frames.SharedFrameCache` (one activation encode,
every loop reuses the bytes) and the serving core underneath.  Each
connection costs a reader coroutine and a writer coroutine, not a thread,
which is what makes connection-scale fan-out (10k+ subscribers) reachable;
sharding the loops lets encode+drain work use more than one core
(``benchmarks/bench_net_fanout.py`` drives the sweep).

Bridging the thread world and the loops, backpressured both ways (the
details live in :mod:`repro.serving.net.session` and
:mod:`repro.serving.net.requests`):

* **DML inbound** — a connection's statements go from its read loop
  straight onto the shard queues, in arrival order, so a pipelined burst
  runs as one micro-batch; only a full shard queue moves that statement's
  enqueue to a worker thread, which blocks that connection's dispatch loop
  and never an event loop.
* **Activations outbound** — each subscription's ``_offer_many`` never
  blocks the shard worker: it reserves the bundle's slots of the
  connection's bounded send buffer and hands the run to the owning loop,
  which frames it once — one ``activation_batch`` (node table plus rows)
  for clients that negotiated the capability, split only at half of
  ``max_frame``; slots release only after the frame drains.  A slow
  consumer **pauses**: detach, terminal ``paused`` frame behind everything
  already framed, durable resume via the persisted cursor.

``docs/networking.md`` is the protocol reference (the "scaling the front
end" section covers loop-count tuning);
``tests/serving/test_net_protocol_fuzz.py`` pins the no-crash guarantee and
``tests/property/test_property_net_equivalence.py`` pins delivery
equivalence against the in-process subscriber oracle across loop counts and
frame shapes.
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
        Event loops in the acceptor group, one daemon thread each.  ``1``
        (default) reproduces the single-loop front end exactly.
    reuse_port:
        ``None`` (default) uses SO_REUSEPORT listeners when ``loops > 1``
        and the platform supports the option, falling back to the
        accept-and-hand-off strategy otherwise; ``False`` forces the
        hand-off fallback (deterministic round-robin placement — tests use
        this).
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
        reuse_port: bool | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        send_buffer: int = 256,
        write_buffer_limit: int | None = None,
    ) -> None:
        super().__init__(
            server, host=host, port=port, send_buffer=send_buffer,
            write_buffer_limit=write_buffer_limit,
        )
        if loops < 1:
            raise NetworkError("loops must be at least 1")
        self.loops = loops
        self.reuse_port = reuse_port
        self.max_frame = max_frame
        #: One encode per delivery run, shared by every loop.
        self.frame_cache = SharedFrameCache(max_frame=max_frame)

    async def _serve_connection(self, runtime, reader, writer) -> None:
        await _Connection(runtime, reader, writer).run()

    def net_report(self) -> dict:
        """Wire-encodable counters + per-loop and per-subscription detail."""
        return self._report()
