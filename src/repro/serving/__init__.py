"""Concurrent sharded serving layer for active XML views.

This package turns the single-caller pipeline of
:class:`~repro.core.service.ActiveViewService` into a *server*:

* :class:`ActiveViewServer` (:mod:`repro.serving.server`) — accepts DML from
  many concurrent clients, routes statements to per-shard single-writer
  worker loops, micro-batches each shard's queue through the set-oriented
  batch engine, and shares one thread-safe compiled-plan cache across
  shards;
* :class:`Subscriber` / :class:`Activation`
  (:mod:`repro.serving.subscribers`) — bounded activation fan-out with
  at-least-once, per-node-ordered delivery;
* :mod:`repro.serving.net` — an asyncio TCP front end (framed wire
  protocol, connection-scale subscription fan-out, resumable cursors).
  Imported explicitly (``from repro.serving.net import NetworkServer,
  NetClient``) so the in-process layer stays free of the durability
  dependency.

See ``docs/api.md`` for the full reference,
``examples/concurrent_subscribers.py`` for the in-process walkthrough, and
``examples/subscribers.py`` + ``docs/networking.md`` for the
network layer.
"""

from repro.serving.server import ActiveViewServer, ShardStats, Ticket
from repro.serving.subscribers import Activation, Subscriber

__all__ = ["ActiveViewServer", "Activation", "ShardStats", "Subscriber", "Ticket"]
