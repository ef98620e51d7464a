"""Framed append-only record logs and the per-database write-ahead log.

:class:`RecordLog` is the shared storage primitive: an append-only file of
length- and CRC-framed records (format below), with a configurable sync
policy and torn-tail detection on replay.  :class:`WriteAheadLog` specializes
it for one :class:`~repro.relational.database.Database`: a commit listener
converts every committed change (catalog DDL, bulk loads, net statement/batch
deltas) into a record and appends it — *after* the change is applied in
memory and *before* any trigger fires, so the log is always a prefix-accurate
history of acknowledged work.

Frame format (everything after the header is the
:mod:`repro.persist.codec`-encoded record)::

    ┌────────────┬────────────┬─────────────────────────┐
    │ length: u32│ crc32: u32 │ payload (length bytes)  │
    │ big-endian │ of payload │ codec-encoded dict      │
    └────────────┴────────────┴─────────────────────────┘

A crash can tear at most the *last* frame (appends are sequential), so
replay stops at the first incomplete or CRC-failing frame and reports it via
:attr:`RecordLog.torn_tail` — a torn record corresponds to work that was
never acknowledged, which is exactly the crash-consistency contract
``docs/persistence.md`` spells out.

Every record carries an ``lsn`` (log sequence number).  Snapshots remember
the highest LSN they include, and replay skips records at or below it, so a
crash *between* writing a snapshot and truncating the log never double
applies (see :meth:`WriteAheadLog.truncate`).
"""

from __future__ import annotations

import os
import pathlib
import struct
import threading
import zlib
from typing import Any, Callable, Iterator

from repro.errors import PersistenceError
from repro.persist.codec import decode_value, encode_value
from repro.persist.records import (
    delta_to_record,
    rows_to_lists,
    schema_to_record,
)
from repro.relational.database import Database

__all__ = ["RecordLog", "WriteAheadLog", "SYNC_POLICIES"]

_HEADER = struct.Struct(">II")

#: Durability/latency trade-off for appends (see docs/operations.md):
#: ``"none"`` buffers in the process, ``"flush"`` pushes every record to the
#: OS page cache (survives a process crash — the default), ``"fsync"`` forces
#: the record to stable storage (survives power loss) before returning.
SYNC_POLICIES = ("none", "flush", "fsync")


class RecordLog:
    """An append-only file of framed, CRC-checked, codec-encoded records."""

    def __init__(self, path: str | os.PathLike, *, sync: str = "flush") -> None:
        if sync not in SYNC_POLICIES:
            raise PersistenceError(f"unknown sync policy {sync!r} (use {SYNC_POLICIES})")
        self.path = pathlib.Path(path)
        self.sync = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "ab")
        #: True when the last replay hit an incomplete/corrupt tail frame.
        self.torn_tail = False
        #: Records appended through this handle (not counting replayed ones).
        self.appended = 0
        #: Byte length of the intact frame prefix found by the last replay.
        self._valid_bytes = 0

    # ------------------------------------------------------------------ writing

    @staticmethod
    def frame(record: dict) -> bytes:
        """One record as the bytes :meth:`append_frame` writes (no I/O, no lock)."""
        payload = encode_value(record)
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, record: dict) -> None:
        """Append one record (a dict of codec-encodable values)."""
        self.append_frame(self.frame(record))

    def append_frame(self, frame: bytes) -> None:
        """Append one already framed record (see :meth:`frame`)."""
        with self._lock:
            self._file.write(frame)
            if self.sync != "none":
                self._file.flush()
                if self.sync == "fsync":
                    os.fsync(self._file.fileno())
            self.appended += 1

    def truncate(self) -> None:
        """Discard every record (the file becomes empty)."""
        with self._lock:
            self._file.close()
            self._file = open(self.path, "wb")
            self._file.close()
            self._file = open(self.path, "ab")

    def trim(self) -> None:
        """Cut a torn tail back to the last intact frame boundary.

        Call after a :meth:`replay` that reported :attr:`torn_tail`;
        otherwise future appends would land *behind* the garbage and be
        unreachable to every future replay.
        """
        with self._lock:
            self._file.close()
            os.truncate(self.path, self._valid_bytes)
            self._file = open(self.path, "ab")
            self.torn_tail = False

    def rewrite(self, records) -> None:
        """Atomically replace the log's contents with ``records`` (compaction)."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(self.frame(record))
            handle.flush()
            os.fsync(handle.fileno())
        with self._lock:
            self._file.close()
            os.replace(tmp, self.path)
            self._file = open(self.path, "ab")

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    # ------------------------------------------------------------------ reading

    def replay(self) -> Iterator[dict]:
        """Yield every intact record in append order.

        Stops (without raising) at the first torn frame — an incomplete
        header, a payload shorter than its declared length, or a CRC
        mismatch — and sets :attr:`torn_tail`.  Appends are sequential, so a
        torn frame can only be the tail left by a crash mid-append; the
        records before it are exactly the acknowledged history.
        """
        self.torn_tail = False
        with self._lock:
            self._file.flush()
        data = self.path.read_bytes()
        offset = 0
        self._valid_bytes = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                self.torn_tail = True
                return
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data) or zlib.crc32(data[start:end]) != crc:
                self.torn_tail = True
                return
            yield decode_value(data[start:end])
            offset = end
            self._valid_bytes = offset

    @property
    def byte_size(self) -> int:
        """Current size of the log file in bytes."""
        with self._lock:
            self._file.flush()
        return self.path.stat().st_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.path}, sync={self.sync})"


class WriteAheadLog(RecordLog):
    """The write-ahead log of one database (one per shard when sharded).

    Attach with :meth:`attach`; every committed change then appends one
    record:

    * ``{"kind": "create_table", "schema": {...}}`` — catalog DDL, with the
      full schema (columns, primary key, foreign keys, unique constraints);
    * ``{"kind": "drop_table", "table": name}``;
    * ``{"kind": "create_index", "table": t, "columns": [...], "name": n}``;
    * ``{"kind": "load", "table": t, "rows": [...]}`` — a trigger-bypassing
      bulk load;
    * ``{"kind": "apply", "deltas": [...]}`` — the **net coalesced deltas**
      of one committed statement or batch (the same
      :class:`~repro.relational.dml.CoalescedDelta` slices the triggers fire
      on), recorded as per-(table, event) inserted/deleted row lists.

    Logging net deltas rather than statement text makes replay deterministic
    (no predicates to re-evaluate) and makes one WAL record per *batch*, so
    the batch engine's amortization extends to durability.

    Every record carries an ``lsn``; :attr:`last_lsn` survives truncation so
    snapshot bookkeeping can skip already-included records on replay.
    """

    def __init__(self, path: str | os.PathLike, *, sync: str = "flush") -> None:
        super().__init__(path, sync=sync)
        self._bound: list[tuple[Database, Callable[[str, Any], None]]] = []
        #: LSN of the most recently appended record (0 = none yet).  Set from
        #: the replayed history by :func:`repro.persist.recovery.recover_database`.
        self.last_lsn = 0

    def append(self, record: dict) -> None:
        """Append one record, stamping the next LSN."""
        with self._lock:
            self.last_lsn += 1
            record = dict(record)
            record["lsn"] = self.last_lsn
        super().append(record)

    def truncate(self) -> None:
        """Drop all records but keep numbering (LSNs never restart)."""
        super().truncate()

    # ------------------------------------------------------------------ binding

    def attach(self, database: Database) -> None:
        """Start logging every committed change of ``database``."""

        def listener(kind: str, payload: Any) -> None:
            self.log_event(kind, payload)

        database.add_commit_listener(listener)
        self._bound.append((database, listener))

    def detach(self) -> None:
        """Stop logging (idempotent)."""
        for database, listener in self._bound:
            database.remove_commit_listener(listener)
        self._bound = []

    def log_event(self, kind: str, payload: Any) -> None:
        """Convert one commit-listener event into a record and append it."""
        if kind == "create_table":
            self.append({"kind": kind, "schema": schema_to_record(payload)})
        elif kind == "drop_table":
            self.append({"kind": kind, "table": payload})
        elif kind == "create_index":
            table, columns, name = payload
            self.append(
                {"kind": kind, "table": table, "columns": list(columns), "name": name}
            )
        elif kind == "load":
            table, rows = payload
            self.append({"kind": kind, "table": table, "rows": rows_to_lists(rows)})
        elif kind == "apply":
            self.append(
                {"kind": kind, "deltas": [delta_to_record(delta) for delta in payload]}
            )
        else:  # pragma: no cover - future event kinds must be handled explicitly
            raise PersistenceError(f"unknown commit event kind {kind!r}")
