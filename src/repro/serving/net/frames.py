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
while cached; eviction is FIFO-bounded, sized so a fan-out burst stays
resident.  All methods are thread-safe and callable from any loop thread.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.persist.records import activation_to_record
from repro.serving.net.protocol import encode_frame
from repro.serving.subscribers import Activation

__all__ = ["FrameCache", "SharedFrameCache"]


class FrameCache:
    """Identity-keyed, FIFO-bounded cache of one frame per activation."""

    def __init__(
        self, encode: Callable[[dict], bytes], capacity: int = 2048
    ) -> None:
        #: Activation wire record → the complete frame every subscriber gets.
        self._encode = encode
        self.capacity = capacity
        self._lock = threading.Lock()
        # id(activation) -> (activation, wire record, frame bytes)
        self._singles: dict[int, tuple[Activation, dict, bytes]] = {}

    def _single_entry(self, activation: Activation) -> tuple[tuple, bool]:
        # lock held by the caller
        entry = self._singles.get(id(activation))
        if entry is not None and entry[0] is activation:
            return entry, True
        record = activation_to_record(activation)
        entry = (activation, record, self._encode(record))
        self._singles[id(activation)] = entry
        self._trim(self._singles)
        return entry, False

    def _trim(self, cache: dict) -> None:
        while len(cache) > self.capacity:
            cache.pop(next(iter(cache)))

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

    def __init__(self, capacity: int = 2048) -> None:
        super().__init__(
            lambda record: encode_frame({"type": "activation", "payload": record}),
            capacity,
        )
        # tuple of ids -> (activations, batch frame bytes)
        self._batches: dict[tuple, tuple[tuple[Activation, ...], bytes]] = {}

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
            entry = self._batches.get(key)
            if entry is not None and all(
                cached is live for cached, live in zip(entry[0], activations)
            ):
                return entry[1], True
            records = [self._single_entry(a)[0][1] for a in activations]
            frame = encode_frame(
                {"type": "activation_batch", "payloads": records}
            )
            self._batches[key] = (tuple(activations), frame)
            self._trim(self._batches)
            return frame, False
