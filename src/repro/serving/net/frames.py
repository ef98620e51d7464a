"""Cross-loop cache of encoded activation frames, one entry per delivery run.

What a shard worker fired in one micro-batch reaches a subscribed connection
as a *run* — the activations one loop wake-up drains — and the run leaves
as one frame: the outbox's node table plus thin rows
(:func:`~repro.persist.records.run_to_record`), so a node text that eight
sibling activations share is encoded, sent and parsed once.  A run of one
is the plain ``activation`` message.  One run fans out to every subscribed
connection; :class:`FrameCache` encodes it once process-wide — every loop
and every connection whose run holds the same activations reuses the bytes
— guarded by a plain lock because the front end's loops run on separate
threads.

The transport supplies how a message becomes a complete frame and what it
calls the node-table message: :class:`SharedFrameCache` is the TCP
protocol's length+CRC ``activation_batch``, the web gateway's
:class:`~repro.serving.web.webframes.JsonFrameCache` an unmasked WebSocket
TEXT frame around a JSON ``activations`` body.  A run is split only where
one frame would exceed ``max_frame // 2`` bytes (headroom under the peer's
own cap) or :data:`~repro.serving.net.protocol.MAX_BATCH_ACTIVATIONS` rows.

A run is keyed by its activations' ``(shard, sequence)`` positions — what
identifies an activation for the life of a serving stack, redelivered from
the outbox or not — so an entry holds frames and nothing else: no
activation, no node tree is kept alive by it, and the cache is bounded by
the **bytes of the frames it holds**.  Eviction is FIFO; the budget covers
a fan-out burst (see :data:`FRAME_BUDGET_BYTES`), and a connection that
comes for an evicted run re-encodes it — a counted miss, never an error.
Encoding serializes no node: the text lives in the activations'
:class:`~repro.xmlmodel.serialize.EncodedPair`.  All methods are
thread-safe and callable from any loop thread.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.persist.records import activation_to_record, run_to_record
from repro.serving.net.protocol import (
    DEFAULT_MAX_FRAME,
    MAX_BATCH_ACTIVATIONS,
    encode_frame,
)
from repro.serving.subscribers import Activation

__all__ = ["FrameCache", "SharedFrameCache", "FRAME_BUDGET_BYTES"]

#: Frame bytes one cache keeps.  A run's frames have to stay resident from
#: their first encode until the slowest subscribed connection has been
#: handed them — one fan-out burst, which the per-subscription send buffer
#: bounds (256 activations by default, a few hundred bytes a row plus the
#: node texts): 4 MiB leaves that burst an order of magnitude of headroom
#: for loops running out of step.
FRAME_BUDGET_BYTES = 4 * 1024 * 1024


class FrameCache:
    """Position-keyed, FIFO cache of each run's frames, bounded in bytes."""

    def __init__(
        self,
        encode: Callable[[dict], bytes],
        run_type: str,
        max_frame: int,
        budget_bytes: int = FRAME_BUDGET_BYTES,
    ) -> None:
        #: Message dict → the complete frame every subscriber gets.
        self._encode = encode
        #: ``type`` of the node-table message.
        self._run_type = run_type
        self._frame_limit = max(1, max_frame // 2)
        self._budget = budget_bytes
        self._lock = threading.Lock()
        # a run's (shard, sequence) positions -> ([(frame, count)], their bytes)
        self._runs: dict[tuple, tuple[list[tuple[bytes, int]], int]] = {}
        self._bytes = 0

    @property
    def retained_bytes(self) -> int:
        """Bytes of the frames currently cached (at most the budget)."""
        return self._bytes

    def run_frames(
        self, run: Sequence[Activation]
    ) -> tuple[list[tuple[bytes, int]], bool]:
        """The frames carrying ``run``, each with its activation count; and
        whether they were already encoded (for an equal run of another
        connection, on any loop)."""
        key = tuple([(activation.shard, activation.sequence) for activation in run])
        with self._lock:
            entry = self._runs.get(key)
            if entry is not None:
                return entry[0], True
            frames = self._frames(run)
            size = sum(len(frame) for frame, _count in frames)
            self._runs[key] = (frames, size)
            self._bytes += size
            while self._bytes > self._budget:
                self._bytes -= self._runs.pop(next(iter(self._runs)))[1]
            return frames, False

    def _frames(self, run: Sequence[Activation]) -> list[tuple[bytes, int]]:
        if len(run) == 1:
            message = {"type": "activation", "payload": activation_to_record(run[0])}
            return [(self._encode(message), 1)]
        if len(run) <= MAX_BATCH_ACTIVATIONS:
            frame = self._encode({"type": self._run_type, **run_to_record(run)})
            if len(frame) <= self._frame_limit:
                return [(frame, len(run))]
        half = len(run) // 2
        return self._frames(run[:half]) + self._frames(run[half:])


class SharedFrameCache(FrameCache):
    """The TCP protocol's frames: ``activation`` and ``activation_batch``."""

    def __init__(
        self, budget_bytes: int = FRAME_BUDGET_BYTES, *, max_frame: int = DEFAULT_MAX_FRAME
    ) -> None:
        super().__init__(encode_frame, "activation_batch", max_frame, budget_bytes)
