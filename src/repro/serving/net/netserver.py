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
details live in :mod:`repro.serving.net.session`):

* **DML inbound** — a connection's statements are submitted to the shard
  queues via worker threads (``asyncio.to_thread``) in arrival order; a
  full shard queue blocks only that connection's dispatch loop, never an
  event loop.
* **Activations outbound** — each subscription's ``_offer_many`` never
  blocks the shard worker: it reserves the bundle's slots of the
  connection's bounded send buffer and hands the run to the owning loop.  Clients that
  negotiated the ``activation_batch`` capability get pending activations
  coalesced into one frame (count budget ``batch_max_count``, byte budget
  ``batch_max_bytes``, linger deadline ``batch_linger``); slots release
  only after the frame drains.  A slow consumer **pauses**: detach, flush
  (pending batch included), terminal ``paused`` frame, durable resume via
  the persisted cursor.

``docs/networking.md`` is the protocol reference (the "scaling the front
end" section covers loop-count and batching tuning);
``tests/serving/test_net_protocol_fuzz.py`` pins the no-crash guarantee and
``tests/property/test_property_net_equivalence.py`` pins delivery
equivalence against the in-process subscriber oracle across loop counts and
batching modes.
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
        configurable on both endpoints (the client's cap is what bounds a
        batched frame it is willing to decode).
    send_buffer:
        Per-subscription bound on activations buffered toward one client
        (frames handed to the loop but not yet drained).  Crossing it
        pauses the subscription — see the module docstring's slow-consumer
        policy.
    batching, batch_max_count, batch_max_bytes, batch_linger:
        Activation frame batching for clients that negotiated the
        ``activation_batch`` capability: a hot subscription's pending
        activations coalesce into one frame, flushed when ``batch_max_count``
        activations or ``batch_max_bytes`` encoded bytes accumulate, or
        ``batch_linger`` seconds after the first pending activation —
        whichever comes first.  ``batching=False`` disables the capability
        server-wide (every client gets single frames).
    batch_eager_flush:
        Flush the pending batch as soon as a delivery run (the burst of
        activations handed to the connection in one loop wakeup) ends —
        the default, pairing burst-sized batches with zero added latency.
        ``False`` holds the batch for the full linger/count/byte budgets
        instead: slightly better coalescing for workloads that trickle
        activations just under the linger apart, at the linger's latency
        cost.
    """

    extra_counters = ("activation_batches_sent", "batched_activations_sent")

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
        batching: bool = True,
        batch_max_count: int = 128,
        batch_max_bytes: int = 256 * 1024,
        batch_linger: float = 0.002,
        batch_eager_flush: bool = True,
    ) -> None:
        super().__init__(
            server, host=host, port=port, send_buffer=send_buffer,
            write_buffer_limit=write_buffer_limit,
        )
        if loops < 1:
            raise NetworkError("loops must be at least 1")
        if batch_max_count < 1:
            raise NetworkError("batch_max_count must be at least 1")
        if batch_max_bytes < 1:
            raise NetworkError("batch_max_bytes must be at least 1")
        if batch_linger < 0:
            raise NetworkError("batch_linger must be >= 0")
        self.loops = loops
        self.reuse_port = reuse_port
        self.max_frame = max_frame
        self.batching = batching
        self.batch_max_count = batch_max_count
        # The byte budget must leave headroom under max_frame: a flush can
        # not produce a frame the peer's read limit would reject.
        self.batch_max_bytes = min(batch_max_bytes, max(1, max_frame // 2))
        self.batch_linger = batch_linger
        self.batch_eager_flush = batch_eager_flush
        #: One encode per activation (or batch shape), shared by every loop.
        self.frame_cache = SharedFrameCache()

    async def _serve_connection(self, runtime, reader, writer) -> None:
        await _Connection(runtime, reader, writer).run()

    def net_report(self) -> dict:
        """Wire-encodable counters + per-loop and per-subscription detail."""
        return self._report()
