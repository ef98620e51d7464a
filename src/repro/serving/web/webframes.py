"""Shared one-encode-per-run cache of WebSocket activation frames.

Server→client WebSocket frames are unmasked (RFC 6455 masks only the client
direction), so one encode — JSON message body *and* the complete TEXT frame
around it — is byte-identical for every subscriber.  :class:`JsonFrameCache`
is the front ends' one :class:`~repro.serving.net.frames.FrameCache` with
that encoder plugged in: a delivery run is one ``activations`` message
(node table plus rows), a run of one the plain ``activation`` message.
"""

from __future__ import annotations

import json

from repro.serving.net.frames import FRAME_BUDGET_BYTES, FrameCache
from repro.serving.subscribers import Activation
from repro.serving.web.wsproto import DEFAULT_MAX_MESSAGE, OP_TEXT, encode_frame

__all__ = ["JsonFrameCache", "text_frame"]


def text_frame(message: dict) -> bytes:
    """One JSON message as a complete unmasked TEXT frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return encode_frame(OP_TEXT, body)


class JsonFrameCache(FrameCache):
    """Encode each run's WebSocket TEXT frame once, share it."""

    def __init__(
        self, budget_bytes: int = FRAME_BUDGET_BYTES, *, max_frame: int = DEFAULT_MAX_MESSAGE
    ) -> None:
        super().__init__(text_frame, "activations", max_frame, budget_bytes)

    def frame(self, activation: Activation) -> bytes:
        """The complete ``{"type": "activation", ...}`` TEXT frame."""
        return self.run_frames((activation,))[0][0][0]
