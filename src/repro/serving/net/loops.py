"""The front ends' one event loop: listener, thread, lifecycle, counters.

:class:`FrontEnd` is what :class:`~repro.serving.net.netserver.NetworkServer`
and :class:`~repro.serving.web.gateway.WebGateway` have in common: a serving
stack to expose, a bind address, and one asyncio event loop on one daemon
thread.  The front end owns the listener, that thread and loop, its
:class:`~repro.serving.net.session.WakeHub`, the open connections and
subscribing sessions, and the wire counters.  Everything mutable is touched
only from the loop thread (reads from other threads are reporting-only), so
the delivery path takes no lock of the front end's; the one exception is the
seeded ``wake_posts`` / ``wake_wakeups`` counters, which producer threads
bump under the hub's own lock.

One loop is all this process uses: the interpreter runs one thread at a
time, so a second loop thread would only contend with the first and with
the shard workers.  Serving on more cores means more processes.

A transport subclasses :class:`FrontEnd`, implements
:meth:`FrontEnd._serve_connection` (usually by running a
:class:`~repro.serving.net.session.Session` subclass), and inherits
start/stop, the counters and the per-subscription report rows.
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

#: Listen backlog of the listener socket.
_BACKLOG = 512

#: Counters every transport's sessions (and its wake hub) keep.
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
    "wake_posts",
    "wake_wakeups",
)


class FrontEnd:
    """One event loop exposing one serving stack on one address.

    Every public method is callable from ordinary threads.  Lifecycle
    composes with the serving stack's: start the inner server first, stop
    the front end first (``with`` blocks nest naturally).  The counters
    keep counting across stop/start.
    """

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
        #: The running loop and its producer wake-up funnel (set by
        #: :meth:`start`, from the loop thread).
        self.loop: asyncio.AbstractEventLoop | None = None
        self.wake_hub: WakeHub | None = None
        #: Every open transport, so shutdown can close them all.
        self.connections: set[asyncio.StreamWriter] = set()
        #: The subset that speaks the subscription protocol (reporting).
        self.sessions: set[Session] = set()
        self.counters = dict.fromkeys(_COUNTERS + self.extra_counters, 0)
        self._thread: threading.Thread | None = None
        self._shutdown: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Speak the transport's protocol on one accepted connection."""
        raise NotImplementedError

    # ------------------------------------------------------------------ lifecycle

    def start(self):
        """Bind the listener and start serving; returns ``self``."""
        if self._thread is not None:
            return self
        try:
            listener = self._make_listener()
        except OSError as error:
            raise NetworkError(
                f"{type(self).__name__} failed to bind: {error}"
            ) from error
        self.address = listener.getsockname()[:2]
        started = threading.Event()
        name = f"{type(self).__name__}-loop"
        self._thread = threading.Thread(
            target=self._run, args=(listener, started), name=name, daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):
            self.stop()
            raise NetworkError(f"{name} failed to start within 30s")
        return self

    def stop(self) -> None:
        """Close the listener and every connection; join the loop thread."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        try:
            self.loop.call_soon_threadsafe(self._shutdown.set)
        except (AttributeError, RuntimeError):
            pass  # the loop never came up, or is already gone
        thread.join(timeout=30)
        self.address = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _make_listener(self) -> socket.socket:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        # The explicit protocol is inherited by accepted sockets, and asyncio
        # disables Nagle's algorithm only on sockets that say IPPROTO_TCP;
        # without it a burst of small frames stalls ~40 ms on delayed ACKs.
        sock = socket.socket(family, socket.SOCK_STREAM, socket.IPPROTO_TCP)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(_BACKLOG)
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        return sock

    def _run(self, listener: socket.socket, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.wake_hub = WakeHub(loop, self.counters)
        self.loop = loop
        try:
            loop.run_until_complete(self._serve(listener, started))
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self, listener: socket.socket, started: threading.Event) -> None:
        self._shutdown = asyncio.Event()
        accept_task = asyncio.ensure_future(self._accept_loop(listener))
        started.set()
        try:
            await self._shutdown.wait()
        finally:
            accept_task.cancel()
            try:
                await accept_task
            except (asyncio.CancelledError, OSError):
                pass
            listener.close()
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

    async def _accept_loop(self, listener: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _addr = await loop.sock_accept(listener)
            except OSError:
                return
            task = asyncio.ensure_future(self._run_connection(conn))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _run_connection(self, conn: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(
                sock=conn, limit=self.stream_limit
            )
        except OSError:
            conn.close()
            return
        self.connections.add(writer)
        self.counters["connections_opened"] += 1
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # the peer vanished mid-conversation: a clean goodbye
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.connections.discard(writer)

    # ------------------------------------------------------------------ reporting

    def _report(self) -> dict:
        """Wire-encodable counters + per-subscription detail."""
        subscriptions = [
            {
                "name": subscriber.name,
                "buffered": subscriber.inflight,
                "limit": subscriber.limit,
                "paused": subscriber.paused,
                "delivered": subscriber.delivered,
                "refused": subscriber.refused,
                "filtered": subscriber.filtered,
            }
            for subscriber in (s.subscriber for s in list(self.sessions))
            if subscriber is not None
        ]
        return {
            **self.counters,
            "connections_active": len(self.connections),
            "subscriptions": subscriptions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._thread is not None else "stopped"
        return f"{type(self).__name__}({state}, address={self.address})"
