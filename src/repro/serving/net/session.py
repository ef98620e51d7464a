"""The one session runtime every front end's connections run on.

Everything in this module runs on (or hands off to) **one** event loop of a
front end's loop group (:mod:`repro.serving.net.loops`) and knows nothing
about any wire format:

* :class:`WakeHub` and :class:`LoopSubscriber` bridge shard worker threads
  to the loop without ever blocking them, under a bounded per-subscription
  budget;
* :class:`Session` owns what a subscribing connection *is* once its bytes
  are decoded: the bounded out-queue and serialized writer loop, subscribe
  validation and the durable attach (``fast_forward`` → ``subscribe``),
  acks, the per-shard sent watermark, and the slow-consumer policy — a
  subscription that overflows its budget is **paused** (detach → flush →
  terminal ``paused`` message carrying the watermarks actually sent),
  never blocked and never silently dropped.

The unit of delivery is the **run**: what one loop wake-up drains from a
subscription — normally everything one shard micro-batch fired — leaves as
one frame (:mod:`repro.serving.net.frames`), encoded once and shared by
every connection handed the same activations.

A transport subclasses :class:`Session` and supplies its *codec*: how a
control message becomes bytes (:meth:`Session.encode`), which frame cache
turns a run into bytes (the front end's ``frame_cache``), the error code
answering malformed request fields (:attr:`Session.bad_input`), and
whether an ack with no subscription is a protocol error
(:attr:`Session.ack_needs_subscription`) — plus its reader loop.  The TCP
connection (:mod:`repro.serving.net.connection`) adds length+CRC framing,
the hello handshake and pipelined submits; the WebSocket session
(:mod:`repro.serving.web.gateway`) adds RFC 6455 framing and JSON text.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import CursorError, ProtocolError
from repro.serving.subscribers import Activation, Subscriber

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.net.loops import _LoopRuntime

__all__ = ["LoopSubscriber", "REPLY_SLACK", "Session", "WakeHub", "subscription_filter"]

#: Out-queue slots a session keeps beyond its subscription's send buffer,
#: for replies and the terminal ``paused`` message; also how many
#: statements a connection may have submitted and not yet been answered
#: before its reader stops reading (see the TCP connection's read loop).
REPLY_SLACK = 64


class WakeHub:
    """Coalesces producer→loop wakeups into one callback per burst.

    Every ``call_soon_threadsafe`` pays for a lock, a callback handle and a
    self-pipe write; a fan-out burst used to pay that once per *subscriber*
    per delivery run — hundreds of wakeup syscalls per activation on a busy
    loop, and the dominant cross-thread cost once frames themselves are
    shared.  The hub funnels them: producers post callables under one lock,
    and only the post that finds the hub idle schedules the single drain
    callback.  The drain runs every posted callable in FIFO order, so the
    per-subscriber ordering contract (draining wakeup before the overflow
    callback) is exactly as strong as scheduling each callable directly.
    """

    __slots__ = ("_loop", "_lock", "_pending", "_armed", "_dead", "posts", "wakeups")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        #: ``(fn, on_fail)`` pairs not yet handed to the loop.
        self._pending: list[tuple[Callable[[], None], Callable[[], None] | None]] = []
        self._armed = False
        self._dead = False
        self.posts = 0
        self.wakeups = 0

    def post(
        self, fn: Callable[[], None], on_fail: Callable[[], None] | None = None
    ) -> None:
        """Run ``fn()`` on the loop soon; ``on_fail()`` if the loop is gone."""
        arm = False
        with self._lock:
            dead = self._dead
            if not dead:
                self._pending.append((fn, on_fail))
                self.posts += 1
                if not self._armed:
                    self._armed = arm = True
                    self.wakeups += 1
        if dead:
            if on_fail is not None:
                on_fail()
            return
        if not arm:
            return
        try:
            self._loop.call_soon_threadsafe(self._drain)
        except RuntimeError:
            # The loop is gone (server stopped mid-delivery).  Every pending
            # post would otherwise be lost silently — run the failure hooks
            # so subscribers stop accepting instead of leaking reservations.
            with self._lock:
                self._dead = True
                failed, self._pending = self._pending, []
                self._armed = False
            for _fn, fail in failed:
                if fail is not None:
                    fail()

    def _drain(self) -> None:  # loop thread
        while True:
            with self._lock:
                batch = self._pending
                if not batch:
                    self._armed = False
                    return
                self._pending = []
            for fn, _fail in batch:
                fn()


class LoopSubscriber(Subscriber):
    """A subscriber whose delivery hands off to a connection's event loop.

    ``_offer_many`` runs on the producing shard worker's thread and must
    never block it (the in-process :class:`Subscriber` blocks on a full
    queue — correct for one consumer thread, fatal for one slow socket among
    thousands).  Instead it reserves the bundle's slots of the connection's
    bounded send buffer under one lock acquisition, extends a pending run,
    and makes sure one *wakeup* is scheduled on the loop; the wakeup drains
    the whole run in one callback.  The wakeup itself travels through the
    loop's :class:`WakeHub`, so a burst touching many subscribers on one
    loop pays for a single ``call_soon_threadsafe``, not one per subscriber.
    Coalescing the handoff this way (instead of one
    ``call_soon_threadsafe`` per activation) is what lets a micro-batch's
    bundle reach the connection whole: ``deliver`` is called once per
    drained run and the session frames the run as one message.
    When the buffer is full the subscriber flips to *paused* and schedules
    the overflow policy; loop-callback FIFO guarantees the draining wakeup
    runs first, so every reserved activation is framed before the
    ``paused`` frame.  ``release`` is called by the connection after a
    frame (with however many activations it carried) has been written and
    drained.
    """

    def __init__(
        self,
        name: str,
        *,
        limit: int,
        hub: WakeHub,
        deliver: Callable[[list[Activation]], None],
        overflow: Callable[[], None],
        accept: Callable[[Activation], bool] | None = None,
    ) -> None:
        super().__init__(name, capacity=max(1, limit))
        self.limit = limit
        self._hub = hub
        self._deliver = deliver
        self._overflow = overflow
        self._accept = accept
        self._flight_lock = threading.Lock()
        #: Activations reserved but not yet handed to the loop, drained as
        #: one run by the next wakeup (guarded by ``_flight_lock``).
        self._pending_run: list[Activation] = []
        self._wake_scheduled = False
        #: Activations handed to the loop whose frames are not yet drained —
        #: the bounded send buffer (<= ``limit`` by construction; the
        #: slow-consumer regression test asserts it).
        self.inflight = 0
        #: True once the buffer overflowed; no further deliveries happen.
        self.paused = False
        #: Activations skipped by the subscription's view/path filter.
        self.filtered = 0
        #: Activations refused because the subscription was paused (or its
        #: connection closed) — redeliverable from a durable outbox, and
        #: never silently lost: the client was told via the ``paused`` frame.
        self.refused = 0

    def _offer_many(
        self, activations: Sequence[Activation], give_up: Callable[[], bool]
    ) -> None:
        accept = self._accept
        if accept is not None:
            wanted = [a for a in activations if accept(a)]
            self.filtered += len(activations) - len(wanted)
        else:
            wanted = activations
        with self._flight_lock:
            if self.closed or self.paused:
                # Checked under the lock: two shard workers whose bundles
                # both overflow must pause the subscription once, and
                # neither may reserve anything behind the pause.
                self.refused += len(wanted)
                return
            # The outcome of offering one by one: the prefix that fits the
            # send buffer is reserved, the first that does not pauses.
            room = max(0, self.limit - self.inflight)
            taken = wanted if len(wanted) <= room else wanted[:room]
            self.inflight += len(taken)
            self._pending_run.extend(taken)
            if taken and not self._wake_scheduled:
                self._wake_scheduled = True
                self._schedule(self._wake)
            if len(taken) < len(wanted):
                self.paused = True
                self._schedule(self._overflow)
            self.delivered += len(taken)
            self.refused += len(wanted) - len(taken)

    def _wake(self) -> None:
        """Hand everything pending to the session, as one run, in one callback."""
        while True:
            with self._flight_lock:
                run = self._pending_run
                if not run:
                    # Only stand down with the run empty under the lock: a
                    # producer that appended meanwhile saw the wakeup still
                    # scheduled and skipped scheduling another.
                    self._wake_scheduled = False
                    return
                self._pending_run = []
            self._deliver(run)

    def _schedule(self, fn: Callable[[], None]) -> None:
        # When the loop is gone (server stopped mid-delivery) the slot can
        # never drain, so the hub's failure hook stops accepting instead of
        # leaking reservations.
        self._hub.post(fn, self.close)

    def release(self, count: int) -> None:
        """Return send-buffer slots (a frame's activations written + drained)."""
        with self._flight_lock:
            self.inflight -= count


def subscription_filter(
    view: str | None, path: list | None
) -> Callable[[Activation], bool] | None:
    """Build the optional view/path acceptance predicate for a subscription."""
    if view is None and path is None:
        return None
    prefix = tuple(path) if path is not None else None

    def accept(activation: Activation) -> bool:
        if view is not None and activation.view != view:
            return False
        if prefix is not None and activation.path[: len(prefix)] != prefix:
            return False
        return True

    return accept


def _cursor_positions(raw: Any) -> dict[int, int]:
    """Normalise a client-supplied cursor to ``{shard: sequence}``.

    Binary transports send integer shard keys; JSON can only spell them as
    strings, so both are accepted.
    """
    if isinstance(raw, dict):
        try:
            cursor = {
                int(shard) if isinstance(shard, str) else shard: sequence
                for shard, sequence in raw.items()
            }
        except ValueError:
            pass
        else:
            if all(isinstance(n, int) for item in cursor.items() for n in item):
                return cursor
    raise ProtocolError("'cursor' must map shard numbers to sequence numbers")


class Session:
    """One subscribing connection, minus its wire format (see module docs)."""

    #: Prefix of the names given to anonymous subscriptions.
    transport: str
    #: Error code answering a request whose fields are malformed.
    bad_input: str
    #: Whether an ack on a connection that never subscribed is a protocol
    #: error (the peer is confused) or ignored (it raced its own close).
    ack_needs_subscription: bool

    @staticmethod
    def encode(message: dict) -> bytes:
        """One control message as the transport's complete frame."""
        raise NotImplementedError

    async def _read_loop(self) -> None:
        """Read the peer's messages and dispatch them until it leaves."""
        raise NotImplementedError

    def _protocol_error(self, error: ProtocolError) -> None:
        """Tell the peer why the connection is about to be closed."""
        raise NotImplementedError

    def __init__(
        self,
        runtime: "_LoopRuntime",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.runtime = runtime
        self.front = runtime.front
        self.counters = runtime.counters
        self.reader = reader
        self.writer = writer
        # Bounded: a subscription's frames respect its inflight cap (a frame
        # carries at least one activation), submit replies the reader's
        # admission limit, and the second slack covers the replies a reader
        # sends inline (pongs, stats) plus the terminal ``paused`` message.
        # Overflow means the peer pipelines requests without reading replies
        # — the connection is cut rather than buffering without limit.
        self._out: asyncio.Queue = asyncio.Queue(
            maxsize=self.front.send_buffer + 2 * REPLY_SLACK
        )
        self._writer_task: asyncio.Task | None = None
        self.subscriber: LoopSubscriber | None = None
        self._sent_watermark: dict[int, int] = {}
        #: Whether the peer takes a run as one node-table frame; otherwise
        #: every activation travels as its own ``activation`` frame.
        self.run_frames = True

    # ------------------------------------------------------------------ sending

    def send(
        self, message: dict | bytes, after: Callable[[], None] | None = None
    ) -> None:
        """Queue a frame (loop thread only); ``after`` runs once it drained.

        ``message`` is a control message dict, or pre-encoded frame bytes
        (the shared-fan-out path).
        """
        frame = message if isinstance(message, bytes) else self.encode(message)
        try:
            self._out.put_nowait((frame, after))
        except asyncio.QueueFull:
            self.counters["overflow_closes"] += 1
            if after is not None:
                after()
            try:
                self.writer.close()
            except (ConnectionError, OSError):  # pragma: no cover - defensive
                pass

    def send_error(self, msg_id: Any, code: str, message: str) -> None:
        self.send({"type": "error", "id": msg_id, "code": code, "message": message})

    async def _writer_loop(self) -> None:
        counters = self.counters
        out = self._out
        while True:
            # Everything queued leaves in one write: each write is a system
            # call, and a loop thread that makes one while a shard worker is
            # computing gets the interpreter back a whole chunk later.
            items = [await out.get()]
            while not out.empty():
                items.append(out.get_nowait())
            closing = None in items
            if closing:
                del items[items.index(None):]
            try:
                # A transport that is closing (cut on overflow, or lost) has
                # nowhere to write to; the callbacks below still run.
                if items and not self.writer.is_closing():
                    self.writer.writelines([frame for frame, _after in items])
                    await self.writer.drain()
                    counters["frames_sent"] += len(items)
                    counters["bytes_sent"] += sum(len(frame) for frame, _after in items)
            except (ConnectionError, OSError):
                # Peer went away mid-write: stop writing, let the reader
                # loop observe the broken transport and run the cleanup.
                return
            finally:
                for _frame, after in items:
                    if after is not None:
                        after()
            if closing:
                return

    # ------------------------------------------------------------------ lifecycle

    async def run(self) -> None:
        """Serve the connection until the peer leaves or breaks protocol."""
        limit = self.front.write_buffer_limit
        if limit is not None:
            # A small high-water mark — transport *and* kernel send buffer —
            # makes ``drain()`` (and therefore the inflight accounting)
            # track the consumer's real pace instead of buffering depth;
            # tests pin the pause policy with this.
            self.writer.transport.set_write_buffer_limits(high=limit)
            raw = self.writer.get_extra_info("socket")
            if raw is not None:
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, limit)
        self.runtime.sessions.add(self)
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        try:
            await self._read_loop()
        except ProtocolError as error:
            self.counters["protocol_errors"] += 1
            self._protocol_error(error)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # closed (possibly mid-frame) — a clean goodbye
        finally:
            await self._cleanup()

    async def _cleanup(self) -> None:
        self._detach_subscriber()
        # Flush what is already queued (bounded by the send buffer); the
        # loop runtime closes the transport once this returns.  A dead peer
        # just errors the writer loop out.
        try:
            self._out.put_nowait(None)
        except asyncio.QueueFull:
            self._writer_task.cancel()
        try:
            await asyncio.wait_for(self._writer_task, timeout=5)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._writer_task.cancel()
        self.runtime.sessions.discard(self)

    def _detach_subscriber(self) -> None:
        if self.subscriber is not None:
            self.front.core.unsubscribe(self.subscriber)

    # ------------------------------------------------------------------ requests

    async def _handle_subscribe(self, msg_id: Any, message: dict) -> None:
        if self.subscriber is not None and not self.subscriber.paused \
                and not self.subscriber.closed:
            self.send_error(msg_id, "state",
                            "this connection already has an active subscription")
            return
        name = message.get("name")
        view = message.get("view")
        path = message.get("path")
        cursor = message.get("cursor")
        if name is not None and not isinstance(name, str):
            self.send_error(msg_id, self.bad_input,
                            "'name' must be a string when present")
            return
        if path is not None and not isinstance(path, (list, tuple)):
            self.send_error(msg_id, self.bad_input, "'path' must be a step list")
            return
        if cursor is not None:
            try:
                cursor = _cursor_positions(cursor)
            except ProtocolError as error:
                self.send_error(msg_id, self.bad_input, str(error))
                return
        durable = self.front.durable
        resumable = durable is not None and name is not None
        if cursor is not None and not resumable:
            # Cursors need the durable outbox AND a stable name; refusing is
            # the no-silent-fallback contract — an ignored cursor would turn
            # at-least-once into silently-lossy.
            self.send_error(
                msg_id, "unsupported",
                "cursors require a durable server and a named subscription",
            )
            return
        subscriber = LoopSubscriber(
            name or f"{self.transport}-anon-{id(self)}",
            limit=self.front.send_buffer,
            hub=self.runtime.wake_hub,
            deliver=self._deliver_run,
            overflow=self._pause_subscription,
            accept=subscription_filter(view, path),
        )
        self.subscriber = subscriber
        self._sent_watermark = {}
        try:
            if resumable:
                def attach() -> None:
                    if cursor is not None:
                        durable.fast_forward(name, cursor)
                    durable.subscribe(name, subscriber=subscriber)

                await asyncio.to_thread(attach)
            else:
                self.front.core.attach_subscriber(subscriber)
        except Exception as error:  # noqa: BLE001 - persistence/serving errors
            self.subscriber = None
            # A cursor beyond the stream head is the client's mistake.
            code = self.bad_input if isinstance(error, CursorError) else "execution"
            self.send_error(msg_id, code, str(error))
            return
        self.counters["subscriptions_opened"] += 1
        self.send(
            {
                "type": "subscribed",
                "id": msg_id,
                "name": subscriber.name,
                "durable": resumable,
            }
        )

    def _handle_ack(self, message: dict) -> None:
        shard = message.get("shard")
        sequence = message.get("seq")
        if not isinstance(shard, int) or not isinstance(sequence, int):
            raise ProtocolError("ack needs integer 'shard' and 'seq'")
        self.counters["acks_received"] += 1
        if self.subscriber is None:
            if self.ack_needs_subscription:
                raise ProtocolError("ack without a subscription")
            # Ack-after-close tolerance: a client draining its receive
            # buffer may ack activations that raced the close of its
            # subscription.  There is no cursor to advance — the durable
            # outbox simply redelivers on resume.
            return
        # Valid after a pause too: acking what arrived before the pause is
        # exactly what advances the durable cursor for the resume.
        self.subscriber.ack_position(shard, sequence)

    # ------------------------------------------------------------------ fan-out

    def _deliver_run(self, run: list[Activation]) -> None:  # loop thread
        watermark = self._sent_watermark
        for activation in run:
            if activation.sequence > watermark.get(activation.shard, 0):
                watermark[activation.shard] = activation.sequence
        counters = self.counters
        counters["activations_sent"] += len(run)
        # Framed once per run and shared by every subscribed connection on
        # every loop — at fan-out scale the encode would otherwise dominate.
        cache = self.front.frame_cache
        subscriber = self.subscriber  # None once a failed attach let go of it
        for part in [run] if self.run_frames else [[a] for a in run]:
            frames, hit = cache.run_frames(part)
            counters["shared_encode_hits" if hit else "shared_encode_misses"] += 1
            for frame, count in frames:
                if count > 1:
                    counters["activation_batches_sent"] += 1
                    counters["batched_activations_sent"] += count
                self.send(
                    frame,
                    after=partial(subscriber.release, count) if subscriber is not None else None,
                )

    def _pause_subscription(self) -> None:  # loop thread
        if self.subscriber is None:
            return
        self.counters["subscriptions_paused"] += 1
        # Detach first so shard workers stop offering; everything already
        # handed over is framed and queued (the draining wakeup runs before
        # this callback, the out-queue is FIFO), then the pause notice
        # arrives as the stream's terminal message.
        self._detach_subscriber()
        self.send(
            {
                "type": "paused",
                "reason": "slow-consumer",
                "sent": dict(self._sent_watermark),
            }
        )
