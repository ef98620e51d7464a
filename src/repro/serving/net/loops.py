"""Loop group hosting for the front ends: threads, listeners, lifecycle.

:class:`FrontEnd` is what :class:`~repro.serving.net.netserver.NetworkServer`
and :class:`~repro.serving.web.gateway.WebGateway` have in common: a serving
stack to expose, a bind address, and a group of :class:`_LoopRuntime` — each
an asyncio event loop on its own daemon thread that owns its connections,
its :class:`~repro.serving.net.session.WakeHub` and its counters outright.
No state is shared between loops except the frame cache and the serving
core underneath, so the loops never contend on locks in the delivery path.

Two accept strategies, chosen automatically:

* **SO_REUSEPORT** (default where the platform supports it and
  ``loops > 1``) — every loop binds its own listener on the same address
  and the kernel load-balances accepted connections across them; no accept
  hot spot, no cross-thread hand-off.
* **accept-and-hand-off** (fallback; force with ``reuse_port=False``) —
  loop 0 owns the single listener and deals accepted sockets round-robin to
  the loop group; the target loop adopts the raw socket into its own
  streams.  Slightly more cross-thread traffic per *accept*, but delivery
  still runs entirely on the owning loop.

A transport subclasses :class:`FrontEnd`, implements
:meth:`FrontEnd._serve_connection` (usually by running a
:class:`~repro.serving.net.session.Session` subclass), and inherits
start/stop, counter aggregation and the per-subscription report rows.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import TYPE_CHECKING

from repro.errors import NetworkError
from repro.persist.durable import DurableServer
from repro.serving.net.session import WakeHub
from repro.serving.server import ActiveViewServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.net.session import Session

__all__ = ["FrontEnd"]

#: Listen backlog per listener socket.
_BACKLOG = 512

#: Counters every transport's sessions keep, per loop.
_COUNTERS = (
    "connections_opened",
    "frames_received",
    "frames_sent",
    "bytes_sent",
    "statements_submitted",
    "subscriptions_opened",
    "subscriptions_paused",
    "activations_sent",
    "activation_batches_sent",
    "batched_activations_sent",
    "acks_received",
    "shared_encode_hits",
    "shared_encode_misses",
    "protocol_errors",
    "overflow_closes",
    "handoffs",
)


class _LoopRuntime:
    """One event loop of the group: a daemon thread owning its connections.

    All of a runtime's mutable state — its ``connections`` and ``sessions``
    sets and its ``counters`` — is touched only from its own loop thread
    (reads from other threads are reporting-only).
    """

    def __init__(
        self, front: "FrontEnd", index: int, listen_sock: socket.socket | None
    ) -> None:
        self.front = front
        self.index = index
        self.listen_sock = listen_sock
        self.loop: asyncio.AbstractEventLoop | None = None
        #: Set together with ``loop``; coalesces producer wakeups targeting
        #: this loop into one ``call_soon_threadsafe`` per burst.
        self.wake_hub: WakeHub | None = None
        self.thread: threading.Thread | None = None
        #: Every open transport, so shutdown can close them all.
        self.connections: set[asyncio.StreamWriter] = set()
        #: The subset that speaks the subscription protocol (reporting).
        self.sessions: set[Session] = set()
        self.counters = dict.fromkeys(_COUNTERS + front.extra_counters, 0)
        self._started = threading.Event()
        self._shutdown: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        name = f"{type(self.front).__name__}-loop-{self.index}"
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()
        if not self._started.wait(timeout=30):
            raise NetworkError(f"{name} failed to start within 30s")

    def request_stop(self) -> None:
        loop = self.loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._signal_shutdown)
        except RuntimeError:
            pass

    def _signal_shutdown(self) -> None:  # loop thread
        if self._shutdown is not None:
            self._shutdown.set()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.wake_hub = WakeHub(loop)
        self.loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        self._shutdown = asyncio.Event()
        accept_task = None
        if self.listen_sock is not None:
            accept_task = asyncio.ensure_future(self._accept_loop())
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            if accept_task is not None:
                accept_task.cancel()
                try:
                    await accept_task
                except (asyncio.CancelledError, OSError):
                    pass
                self.listen_sock.close()
            for writer in list(self.connections):
                try:
                    writer.close()
                except (ConnectionError, OSError):  # pragma: no cover - defensive
                    pass
            # Reader loops observe their closed transports (an idle one sees
            # a clean end-of-stream) and clean up, detaching subscribers;
            # give them a beat to finish.  Nothing is cancelled.
            for _ in range(100):
                if not self.connections:
                    break
                await asyncio.sleep(0.02)

    # ------------------------------------------------------------------ accepting

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _addr = await loop.sock_accept(self.listen_sock)
            except OSError:
                return
            target = self.front._route_connection(self)
            if target is self:
                self._spawn(conn)
            else:
                self.counters["handoffs"] += 1
                target.adopt(conn)

    def adopt(self, conn: socket.socket) -> None:
        """Take ownership of an accepted socket (called from another loop)."""
        loop = self.loop
        if loop is None:
            conn.close()
            return
        try:
            loop.call_soon_threadsafe(self._spawn, conn)
        except RuntimeError:
            conn.close()

    def _spawn(self, conn: socket.socket) -> None:  # loop thread
        task = asyncio.ensure_future(self._run_connection(conn))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _run_connection(self, conn: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(
                sock=conn, limit=self.front.stream_limit
            )
        except OSError:
            conn.close()
            return
        self.connections.add(writer)
        self.counters["connections_opened"] += 1
        try:
            await self.front._serve_connection(self, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # the peer vanished mid-conversation: a clean goodbye
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.connections.discard(writer)


class FrontEnd:
    """A loop group exposing one serving stack on one address.

    The server owns ``loops`` daemon threads, each running a private
    asyncio loop; every public method is callable from ordinary threads.
    Lifecycle composes with the serving stack's: start the inner server
    first, stop the front end first (``with`` blocks nest naturally).
    """

    #: Event loops in the group and the accept strategy (see the module
    #: docstring); a transport with no such parameters runs one loop.
    loops = 1
    reuse_port: bool | None = None
    #: Transport-specific counter names kept beside the shared ones.
    extra_counters: tuple[str, ...] = ()
    #: Stream reader buffer limit of accepted connections (bytes).
    stream_limit = 2 ** 16

    def __init__(
        self,
        server: ActiveViewServer | DurableServer,
        *,
        host: str,
        port: int,
        send_buffer: int,
        write_buffer_limit: int | None,
    ) -> None:
        if isinstance(server, DurableServer):
            self.durable: DurableServer | None = server
            self.core: ActiveViewServer = server.server
        else:
            self.durable = None
            self.core = server
        if send_buffer < 1:
            raise NetworkError("send_buffer must be at least 1")
        self.host = host
        self.port = port
        self.send_buffer = send_buffer
        #: Optional transport high-water mark (bytes).  ``drain()`` then
        #: waits for the actual socket instead of a large default buffer,
        #: which makes slow-consumer detection prompt; tests set it low.
        self.write_buffer_limit = write_buffer_limit
        #: ``(host, port)`` actually bound (set by :meth:`start`).
        self.address: tuple[str, int] | None = None
        self._runtimes: list[_LoopRuntime] = []
        self._counter_base: dict[str, int] = {}
        self._reuse_port_active = False
        self._next_handoff = 0

    async def _serve_connection(
        self,
        runtime: _LoopRuntime,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Speak the transport's protocol on one accepted connection."""
        raise NotImplementedError

    # ------------------------------------------------------------------ lifecycle

    def start(self):
        """Bind the listener(s) and start serving; returns ``self``."""
        if self._runtimes:
            return self
        want_reuse = self.loops > 1 and self.reuse_port is not False
        use_reuse = want_reuse and hasattr(socket, "SO_REUSEPORT")
        listeners: list[socket.socket | None] = []
        try:
            first = self._make_listener(self.port, reuse_port=use_reuse)
            listeners.append(first)
            bound_port = first.getsockname()[1]
            for _ in range(self.loops - 1):
                listeners.append(
                    self._make_listener(bound_port, reuse_port=True)
                    if use_reuse else None
                )
        except OSError as error:
            for sock in listeners:
                if sock is not None:
                    sock.close()
            raise NetworkError(
                f"{type(self).__name__} failed to bind: {error}"
            ) from error
        self.address = first.getsockname()[:2]
        self._reuse_port_active = use_reuse
        self._next_handoff = 0
        self._runtimes = [
            _LoopRuntime(self, index, sock) for index, sock in enumerate(listeners)
        ]
        try:
            for runtime in self._runtimes:
                runtime.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Close every listener and connection; join the loop threads."""
        runtimes, self._runtimes = self._runtimes, []
        for runtime in runtimes:
            runtime.request_stop()
        for runtime in runtimes:
            if runtime.thread is not None:
                runtime.thread.join(timeout=30)
            for key, value in runtime.counters.items():
                self._counter_base[key] = self._counter_base.get(key, 0) + value
        self.address = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _make_listener(self, port: int, *, reuse_port: bool) -> socket.socket:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        # The explicit protocol is inherited by accepted sockets, and asyncio
        # disables Nagle's algorithm only on sockets that say IPPROTO_TCP;
        # without it a burst of small frames stalls ~40 ms on delayed ACKs.
        sock = socket.socket(family, socket.SOCK_STREAM, socket.IPPROTO_TCP)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, port))
            sock.listen(_BACKLOG)
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        return sock

    def _route_connection(self, acceptor: _LoopRuntime) -> _LoopRuntime:
        """Pick the owning loop for a freshly accepted connection.

        With SO_REUSEPORT the kernel already balanced the accept onto
        ``acceptor``; with the hand-off fallback, the single acceptor deals
        round-robin across the group.  Called only from the acceptor's own
        loop thread, so the rotation needs no lock.
        """
        if self._reuse_port_active or self.loops == 1:
            return acceptor
        target = self._runtimes[self._next_handoff % len(self._runtimes)]
        self._next_handoff += 1
        return target

    # ------------------------------------------------------------------ reporting

    @property
    def counters(self) -> dict[str, int]:
        """Aggregate wire counters across the loop group (plus past runs)."""
        total = dict(self._counter_base)
        for runtime in self._runtimes:
            for key, value in runtime.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def connection_count(self) -> int:
        """Currently open connections across all loops."""
        return sum(len(runtime.connections) for runtime in self._runtimes)

    def _report(self) -> dict:
        """Wire-encodable counters + per-loop and per-subscription detail."""
        per_loop = []
        subscriptions = []
        for runtime in self._runtimes:
            rows = [
                {
                    "loop": runtime.index,
                    "name": subscriber.name,
                    "buffered": subscriber.inflight,
                    "limit": subscriber.limit,
                    "paused": subscriber.paused,
                    "delivered": subscriber.delivered,
                    "refused": subscriber.refused,
                    "filtered": subscriber.filtered,
                }
                for subscriber in (s.subscriber for s in list(runtime.sessions))
                if subscriber is not None
            ]
            subscriptions += rows
            hub = runtime.wake_hub
            per_loop.append(
                {
                    "loop": runtime.index,
                    "connections": len(runtime.connections),
                    "subscriptions": len(rows),
                    "wake_posts": hub.posts if hub is not None else 0,
                    "wake_wakeups": hub.wakeups if hub is not None else 0,
                    **runtime.counters,
                }
            )
        return {
            **self.counters,
            "connections_active": self.connection_count,
            "loops": self.loops,
            "reuse_port": self._reuse_port_active,
            "per_loop": per_loop,
            "subscriptions": subscriptions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._runtimes else "stopped"
        return (
            f"{type(self).__name__}({state}, address={self.address}, "
            f"loops={self.loops})"
        )
