"""Web front end for the serving layer: HTTP REST + WebSocket subscriptions.

The browser-grade packaging of the same surface the TCP front end
(:mod:`repro.serving.net`) exposes, built entirely on the standard library:
hand-rolled HTTP/1.1 (:mod:`repro.serving.web.http`), RFC 6455 WebSocket
framing (:mod:`repro.serving.web.wsproto`), the shared activation frame
cache (:mod:`repro.serving.web.webframes`), the gateway itself
(:mod:`repro.serving.web.gateway`), and asyncio clients
(:mod:`repro.serving.web.client`).  ``docs/networking.md`` ("Web gateway")
is the endpoint and message-schema reference.
"""

from repro.serving.web.client import GatewayError, WebClient, WsClient
from repro.serving.web.gateway import WebGateway
from repro.serving.web.http import HttpError, HttpRequest, read_request
from repro.serving.web.webframes import JsonFrameCache
from repro.serving.web.wsproto import WsReader, accept_key

__all__ = [
    "GatewayError",
    "HttpError",
    "HttpRequest",
    "JsonFrameCache",
    "WebClient",
    "WebGateway",
    "WsClient",
    "WsReader",
    "accept_key",
    "read_request",
]
