"""Point-in-time snapshots of one database's full engine state.

A :class:`Snapshot` captures everything a
:class:`~repro.relational.database.Database` holds — every table's schema,
secondary index definitions, and rows, plus the foreign-key enforcement flag
— together with the WAL position (``wal_lsn``) the capture is consistent
with.  Snapshots bound recovery time: replay only has to process WAL records
*beyond* the snapshot's LSN, and :meth:`repro.persist.DurableServer.snapshot`
truncates each shard's log once the snapshot is safely on disk.

Writes are crash-atomic: the file is written to a temporary sibling, flushed
and fsynced, then :func:`os.replace`\\ d over the target — a crash mid-write
leaves the previous snapshot intact, and the LSN bookkeeping makes the
overlapping WAL suffix harmless to replay (idempotence by skipping
``lsn <= snapshot.wal_lsn``).

The registry (views, XML triggers) deliberately lives in the DDL log rather
than here: views and actions are *code*, so recovery re-registers them from
caller-supplied definitions and replays ``create_trigger`` records — which
re-derives SQL triggers, groups, and grouping constants tables bit-for-bit
(they are pure functions of the specs).  See ``docs/persistence.md``.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PersistenceError, RecoveryError
from repro.persist.codec import decode_value, encode_value
from repro.persist.records import rows_to_lists, schema_from_record, schema_to_record
from repro.relational.database import Database

__all__ = ["Snapshot"]

_MAGIC = b"RPSN"
_VERSION = 1
_HEADER = struct.Struct(">4sII")  # magic, version, crc32 of the payload


@dataclass
class Snapshot:
    """Serialized engine state: tables, indexes, rows, and the WAL position."""

    database_name: str
    tables: list[dict] = field(default_factory=list)
    enforce_foreign_keys: bool = True
    #: Highest WAL LSN whose effects this snapshot includes.
    wal_lsn: int = 0
    #: Extra state stored by higher layers (e.g. per-shard sequences).
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ capture

    @classmethod
    def capture(cls, database: Database, *, wal_lsn: int = 0, extra: dict | None = None) -> "Snapshot":
        """Capture a database's full state.

        The caller must quiesce the database (hold its single-writer role)
        for the duration — :meth:`repro.persist.DurableServer.snapshot` does
        this by draining the shard queues and capturing under each shard's
        database lock.
        """
        tables = []
        for name in database.table_names():
            table = database.table(name)
            tables.append(
                {
                    "schema": schema_to_record(table.schema),
                    "indexes": [
                        [index_name, list(columns)]
                        for index_name, columns in table.index_definitions()
                        if not index_name.startswith("__unique_")
                    ],
                    "rows": rows_to_lists(table.rows()),
                }
            )
        return cls(
            database_name=database.name,
            tables=tables,
            enforce_foreign_keys=database.enforce_foreign_keys,
            wal_lsn=wal_lsn,
            extra=dict(extra or {}),
        )

    # ------------------------------------------------------------------ restore

    def restore(self, name: str | None = None) -> Database:
        """Rebuild a fresh database holding exactly the captured state."""
        database = Database(name=name or self.database_name)
        database.enforce_foreign_keys = False  # rows were already validated
        for entry in self.tables:
            schema = schema_from_record(entry["schema"])
            table = database.create_table(schema)
            for index_name, columns in entry["indexes"]:
                table.create_index(index_name, columns)
            for row in entry["rows"]:
                table.insert_row(tuple(row))
        database.enforce_foreign_keys = self.enforce_foreign_keys
        return database

    # ------------------------------------------------------------------ files

    def write(self, path: str | os.PathLike) -> None:
        """Write the snapshot crash-atomically (tmp + fsync + rename)."""
        path = pathlib.Path(path)
        payload = encode_value(
            {
                "database_name": self.database_name,
                "tables": self.tables,
                "enforce_foreign_keys": self.enforce_foreign_keys,
                "wal_lsn": self.wal_lsn,
                "extra": self.extra,
            }
        )
        header = _HEADER.pack(_MAGIC, _VERSION, zlib.crc32(payload))
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(header + payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Snapshot":
        """Load a snapshot, verifying magic, version, and checksum."""
        data = pathlib.Path(path).read_bytes()
        if len(data) < _HEADER.size:
            raise RecoveryError(f"snapshot {path} is truncated")
        magic, version, crc = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise RecoveryError(f"snapshot {path} has bad magic {magic!r}")
        if version != _VERSION:
            raise RecoveryError(f"snapshot {path} has unsupported version {version}")
        payload = data[_HEADER.size:]
        if zlib.crc32(payload) != crc:
            raise RecoveryError(f"snapshot {path} failed its checksum")
        try:
            record: Any = decode_value(payload)
        except PersistenceError as error:
            raise RecoveryError(f"snapshot {path} is undecodable: {error}") from error
        return cls(
            database_name=record["database_name"],
            tables=record["tables"],
            enforce_foreign_keys=record["enforce_foreign_keys"],
            wal_lsn=record["wal_lsn"],
            extra=record["extra"],
        )

    @property
    def row_count(self) -> int:
        """Total rows captured across tables."""
        return sum(len(entry["rows"]) for entry in self.tables)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Snapshot({self.database_name!r}, tables={len(self.tables)}, "
            f"rows={self.row_count}, wal_lsn={self.wal_lsn})"
        )
