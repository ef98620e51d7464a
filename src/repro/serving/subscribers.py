"""Activation fan-out: bounded subscriber queues with at-least-once delivery.

When a shard worker of :class:`repro.serving.ActiveViewServer` fires XML
triggers, every registered :class:`Subscriber` receives an
:class:`Activation` record describing the firing.  Delivery semantics:

* **bounded** — each subscriber owns a bounded queue; a slow consumer exerts
  backpressure on the shard worker that produced the activation instead of
  growing memory without limit;
* **at-least-once** — the publisher retries a full queue until the
  activation is accepted (or the subscriber/server is closed), so no
  activation is silently dropped while a subscriber is open.  Only a forced
  (non-draining) server stop can abandon deliveries, and those are counted
  in :attr:`Subscriber.abandoned`;
* **per-node ordered** — a monitored node's key always routes to the same
  shard, that shard's worker publishes its firings in order, and the queue
  is FIFO; therefore two activations for the same node are always consumed
  in the order the transitions happened.  No ordering is promised *across*
  nodes living on different shards.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.relational.triggers import TriggerEvent
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.serialize import EncodedPair

__all__ = ["Activation", "Subscriber"]


@dataclass(frozen=True)
class Activation:
    """One XML-trigger firing as delivered to subscribers.

    ``sequence`` increases monotonically per shard, so
    ``(shard, sequence)`` totally orders the activations produced by one
    shard worker — and therefore all activations of any single node.

    ``encoded`` holds the nodes' serialized text, shared by reference with
    every other activation of the same affected pair: whichever encoder
    reads it first (outbox, TCP frame, WebSocket frame) serializes, the
    rest reuse.  An activation built without one makes its own.
    """

    shard: int
    sequence: int
    trigger: str
    view: str
    path: tuple[str, ...]
    event: TriggerEvent
    key: tuple
    old_node: XmlNode | None
    new_node: XmlNode | None
    encoded: EncodedPair | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.encoded is None:
            object.__setattr__(
                self, "encoded", EncodedPair(self.old_node, self.new_node)
            )


class Subscriber:
    """A bounded FIFO of :class:`Activation` records owned by one consumer.

    Obtained from :meth:`repro.serving.ActiveViewServer.subscribe`.  Consume
    with :meth:`get` / :meth:`poll` / :meth:`drain`, or iterate (the iterator
    ends once the subscriber is closed *and* empty).  Closing a subscriber
    detaches it from the server: publishers stop delivering to it and any
    publisher currently blocked on its full queue gives up.
    """

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("subscriber capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self._queue: queue.Queue[Activation] = queue.Queue(maxsize=capacity)
        self._closed = threading.Event()
        #: Number of activations successfully handed to this subscriber.
        self.delivered = 0
        #: Deliveries abandoned because the subscriber (or the server) was
        #: closed while its queue was full — 0 in any graceful shutdown.
        self.abandoned = 0
        #: Highest acknowledged sequence per shard (see :meth:`ack`).
        self._acked: dict[int, int] = {}
        #: Optional hook ``(name, shard, sequence)`` invoked on each ack —
        #: set by the durable serving layer to persist the cursor.
        self.on_ack: Callable[[str, int, int], None] | None = None

    # ------------------------------------------------------------------ consumer

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed.is_set()

    def get(self, timeout: float | None = None) -> Activation:
        """Next activation, blocking up to ``timeout`` (raises ``queue.Empty``)."""
        return self._queue.get(timeout=timeout)

    def poll(self, timeout: float = 0.0) -> Activation | None:
        """Next activation or ``None`` if nothing arrives within ``timeout``."""
        try:
            return self._queue.get(timeout=timeout) if timeout > 0 else self._queue.get_nowait()
        except queue.Empty:
            return None

    def drain(self) -> list[Activation]:
        """Every activation currently queued (non-blocking)."""
        drained: list[Activation] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return drained

    def __iter__(self) -> Iterator[Activation]:
        """Yield activations until the subscriber is closed and empty."""
        while True:
            try:
                yield self._queue.get(timeout=0.05)
            except queue.Empty:
                if self.closed:
                    return

    def ack(self, activation: Activation) -> None:
        """Acknowledge an activation as fully processed.

        Acking advances this subscriber's per-shard cursor to the
        activation's sequence; because one shard's activations are consumed
        in sequence order, the cursor marks a *prefix* of that shard's stream
        as done.  Under a durable server the cursor is persisted (via
        :attr:`on_ack`), and after a restart only activations *beyond* it are
        redelivered — consume first, then ack, and the stream is
        at-least-once across crashes.  Without durability, ack is merely
        bookkeeping (:attr:`acked`).
        """
        self.ack_position(activation.shard, activation.sequence)

    def ack_position(self, shard: int, sequence: int) -> None:
        """Acknowledge by position — same semantics as :meth:`ack`.

        The network front end acknowledges with ``(shard, sequence)`` pairs
        from ``ACK`` frames, where no :class:`Activation` object exists
        server-side anymore; both entry points share this cursor update.
        """
        current = self._acked.get(shard, 0)
        if sequence > current:
            self._acked[shard] = sequence
        if self.on_ack is not None:
            self.on_ack(self.name, shard, sequence)

    @property
    def acked(self) -> dict[int, int]:
        """Highest acknowledged sequence per shard (copy)."""
        return dict(self._acked)

    def close(self) -> None:
        """Detach from the server; pending activations stay readable."""
        self._closed.set()

    # ------------------------------------------------------------------ producer

    def _offer_many(
        self, activations: Sequence[Activation], give_up: Callable[[], bool]
    ) -> None:
        """Deliver one bundle in order; called by shard workers only.

        Each item is put with backpressure: blocking in short waits while the
        queue is full, re-checking ``give_up()`` (server force-stopping) and
        :attr:`closed` between attempts — this loop is what makes delivery
        at-least-once rather than best-effort.
        """
        for activation in activations:
            while not (self.closed or self._queue.full() and give_up()):
                try:
                    self._queue.put(activation, timeout=0.05)
                except queue.Full:
                    continue
                self.delivered += 1
                break
            else:
                # Closed (possibly while we were blocked on a full queue) or
                # given up: the delivery is lost, and the counter must say so.
                self.abandoned += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"Subscriber({self.name!r}, {state}, queued={self._queue.qsize()}, "
            f"delivered={self.delivered})"
        )
