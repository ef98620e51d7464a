"""Durability subsystem: write-ahead log, snapshots, crash recovery.

The paper's middleware assumes a durable RDBMS underneath (Section 2.3);
this package supplies the equivalent guarantees for the pure-Python
substrate:

* :class:`WriteAheadLog` (:mod:`repro.persist.wal`) — a binary-safe,
  CRC-framed, append-only log of committed statement/batch *net deltas* and
  catalog DDL, one per :class:`~repro.relational.database.Database` (one per
  shard when sharded);
* :class:`Snapshot` (:mod:`repro.persist.snapshot`) — crash-atomic
  serialization of full engine state that truncates the WAL behind it;
* :func:`recover_database` (:mod:`repro.persist.recovery`) — snapshot + WAL
  replay with trigger firing suppressed;
* :class:`DurableServer` (:mod:`repro.persist.durable`) — the recovered
  serving stack, including the durable **activation outbox** that makes
  at-least-once activation delivery hold *across restarts*.

``docs/persistence.md`` documents the record formats and crash-consistency
guarantees; ``docs/operations.md`` is the deployment runbook.
"""

from repro.persist.codec import decode_value, encode_value
from repro.persist.durable import DurableServer
from repro.persist.recovery import recover_database
from repro.persist.snapshot import Snapshot
from repro.persist.wal import RecordLog, WriteAheadLog

__all__ = [
    "DurableServer",
    "RecordLog",
    "Snapshot",
    "WriteAheadLog",
    "decode_value",
    "encode_value",
    "recover_database",
]
