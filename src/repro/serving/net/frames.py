"""Cross-loop cache of encoded activation frames.

One fired activation fans out to every subscribed connection; at fan-out
scale the dominant cost is not the socket write but the *encode* if it
happens once per connection.  :class:`FrameCache` encodes each activation
once process-wide — whatever the transport's encoder produces, every loop
and every connection reuses the bytes — guarded by a plain lock because the
front end's loops run on separate threads.

The encoder is the only transport-specific part: :class:`SharedFrameCache`
plugs in the length+CRC ``activation`` frame of the TCP protocol (and adds
the ``activation_batch`` shape on top), the web gateway's
:class:`~repro.serving.web.webframes.JsonFrameCache` plugs in an unmasked
WebSocket TEXT frame around a JSON body.

Entries pin their activation objects, which keeps the ``id()`` keys stable
while cached — and with them the activations' node trees, so the cache is
bounded by the **bytes of the frames it holds**, not by an entry count: a
2 KB single frame and a 200 KB batch frame each pin memory in proportion to
their size.  Eviction is FIFO; the budget covers a fan-out burst (see
:data:`FRAME_BUDGET_BYTES`), and a connection that comes for an evicted
frame re-encodes it — a counted miss, never an error.  The record an entry
keeps costs no second serialization either way: its node text lives in the
activation's :class:`~repro.xmlmodel.serialize.EncodedPair`.  All methods
are thread-safe and callable from any loop thread.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.persist.records import activation_to_record
from repro.serving.net.protocol import encode_frame
from repro.serving.subscribers import Activation

__all__ = ["FrameCache", "SharedFrameCache", "FRAME_BUDGET_BYTES"]

#: Frame bytes one cache keeps per frame shape (single, batch).  A frame has
#: to stay resident from its first encode until the slowest subscribed
#: connection has been handed it — one fan-out burst, which the per-
#: subscription send buffer bounds (256 activations by default, 0.5-2 KB a
#: frame): 4 MiB leaves that burst an order of magnitude of headroom for
#: loops running out of step, and caps what the entries pin.
FRAME_BUDGET_BYTES = 4 * 1024 * 1024


class _FrameStore:
    """FIFO dict of entries ending in their frame, bounded by frame bytes."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.bytes = 0
        self.entries: dict = {}

    def put(self, key, entry: tuple) -> None:
        replaced = self.entries.pop(key, None)
        if replaced is not None:
            self.bytes -= len(replaced[-1])
        self.entries[key] = entry
        self.bytes += len(entry[-1])
        while self.bytes > self.budget:
            evicted = self.entries.pop(next(iter(self.entries)))
            self.bytes -= len(evicted[-1])


class FrameCache:
    """Identity-keyed, FIFO cache of one frame per activation, bounded in bytes."""

    def __init__(
        self, encode: Callable[[dict], bytes], budget_bytes: int = FRAME_BUDGET_BYTES
    ) -> None:
        #: Activation wire record → the complete frame every subscriber gets.
        self._encode = encode
        self._lock = threading.Lock()
        # id(activation) -> (activation, wire record, frame bytes)
        self._singles = _FrameStore(budget_bytes)

    @property
    def retained_bytes(self) -> int:
        """Bytes of the frames currently cached (at most the budget per shape)."""
        return self._singles.bytes

    def _single_entry(self, activation: Activation) -> tuple[tuple, bool]:
        # lock held by the caller
        entry = self._singles.entries.get(id(activation))
        if entry is not None and entry[0] is activation:
            return entry, True
        record = activation_to_record(activation)
        entry = (activation, record, self._encode(record))
        self._singles.put(id(activation), entry)
        return entry, False

    def single_frame(self, activation: Activation) -> tuple[bytes, bool]:
        """The frame carrying one activation alone; returns (bytes, hit)."""
        with self._lock:
            entry, hit = self._single_entry(activation)
            return entry[2], hit


class SharedFrameCache(FrameCache):
    """The TCP protocol's frames: ``activation`` and ``activation_batch``.

    * **single** — ``activation {payload}``, sent to every subscriber that
      did not negotiate the batching capability, and for batches of one;
    * **batch** — ``activation_batch {payloads: [...]}``, keyed by the
      identity tuple of its activations, so connections whose linger
      windows coalesce the same run of activations (the common
      hot-subscription case) share one encode.
    """

    def __init__(self, budget_bytes: int = FRAME_BUDGET_BYTES) -> None:
        super().__init__(
            lambda record: encode_frame({"type": "activation", "payload": record}),
            budget_bytes,
        )
        # tuple of ids -> (activations, batch frame bytes)
        self._batches = _FrameStore(budget_bytes)

    @property
    def retained_bytes(self) -> int:
        """Bytes of the single and batch frames currently cached."""
        return self._singles.bytes + self._batches.bytes

    def frame_size(self, activation: Activation) -> int:
        """Encoded size of one activation's single frame (batch byte budget).

        A batch frame carrying the same record is slightly smaller per
        activation (one shared header), so budgeting with the single-frame
        size errs on the safe side of every frame cap.
        """
        with self._lock:
            entry, _hit = self._single_entry(activation)
            return len(entry[2])

    def batch_frame(
        self, activations: tuple[Activation, ...]
    ) -> tuple[bytes, bool]:
        """The ``activation_batch`` frame for a run; returns (bytes, hit)."""
        key = tuple(id(a) for a in activations)
        with self._lock:
            entry = self._batches.entries.get(key)
            if entry is not None and all(
                cached is live for cached, live in zip(entry[0], activations)
            ):
                return entry[1], True
            records = [self._single_entry(a)[0][1] for a in activations]
            frame = encode_frame(
                {"type": "activation_batch", "payloads": records}
            )
            self._batches.put(key, (tuple(activations), frame))
            return frame, False
