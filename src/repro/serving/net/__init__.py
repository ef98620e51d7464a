"""Network front end for the serving layer: framed protocol, server, client.

See :mod:`repro.serving.net.protocol` for the wire format,
:mod:`repro.serving.net.netserver` for the asyncio server and
:mod:`repro.serving.net.connection` for its framed connections,
:mod:`repro.serving.net.client` for the asyncio client, and
``docs/networking.md`` for the protocol reference.  The transport-neutral
half — shared with the web gateway (:mod:`repro.serving.web`) — is
:mod:`repro.serving.net.session` (the session runtime),
:mod:`repro.serving.net.loops` (the one event loop's hosting),
:mod:`repro.serving.net.requests` (DML/DDL/stats request layer) and
:mod:`repro.serving.net.frames` (the shared encode cache).
"""

from repro.serving.net.client import NetClient, NetSubscription
from repro.serving.net.frames import SharedFrameCache
from repro.serving.net.netserver import NetworkServer
from repro.serving.net.protocol import (
    DEFAULT_MAX_FRAME,
    MAX_BATCH_ACTIVATIONS,
    PROTOCOL_VERSION,
    activation_to_wire,
    encode_frame,
    read_frame,
    run_from_wire,
    statement_from_wire,
    statement_to_wire,
)
from repro.serving.net.session import (
    LoopSubscriber,
    WakeHub,
    subscription_filter,
)

__all__ = [
    "LoopSubscriber",
    "NetClient",
    "NetSubscription",
    "NetworkServer",
    "SharedFrameCache",
    "WakeHub",
    "subscription_filter",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "MAX_BATCH_ACTIVATIONS",
    "encode_frame",
    "read_frame",
    "run_from_wire",
    "statement_to_wire",
    "statement_from_wire",
    "activation_to_wire",
]
