"""Crash recovery: rebuild a database from snapshot + WAL replay.

Recovery is a pure fold over the durable files of one database directory::

    state  =  snapshot (if any)  ⊕  WAL records with lsn > snapshot.wal_lsn

Replay applies each record *directly to table storage* — logged ``apply``
records carry net row deltas, not statement text, so there are no predicates
to re-evaluate and **no trigger ever fires during replay** (the paper's
trigger pipeline reacts to new work; recovery is the reconstruction of old,
already-reacted-to work).  Re-firing is the job of the durable activation
outbox (:mod:`repro.persist.outbox`), which redelivers
accepted-but-unacknowledged activations to subscribers after restart.

The registry (views / XML triggers) is rehydrated separately from the DDL
log by :class:`repro.persist.DurableServer`; this module only rebuilds
relational state.
"""

from __future__ import annotations

import os
import pathlib

from repro.errors import RecoveryError
from repro.persist.records import schema_from_record
from repro.persist.snapshot import Snapshot
from repro.persist.wal import WriteAheadLog
from repro.relational.database import Database
from repro.relational.table import Table

__all__ = ["recover_database", "WAL_FILE", "SNAPSHOT_FILE", "DDL_FILE"]

#: File names inside a durable database directory.
WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot.bin"
DDL_FILE = "ddl.log"


def recover_database(
    directory: str | os.PathLike,
    *,
    name: str | None = None,
    sync: str = "flush",
) -> tuple[Database, WriteAheadLog]:
    """Rebuild a database from ``directory``; returns ``(database, wal)``.

    * With neither snapshot nor WAL present the directory is initialized
      empty (first boot).
    * A torn WAL tail (crash mid-append) is detected, reported via
      ``wal.torn_tail`` during replay, and trimmed so future appends extend
      the intact prefix.
    * The returned WAL is **not** yet attached to the database — callers that
      want continued logging call ``wal.attach(database)`` once their own
      recovery steps (registry rehydration) are done.  The WAL's
      :attr:`~repro.persist.wal.WriteAheadLog.last_lsn` continues from the
      recovered history.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snapshot_path = directory / SNAPSHOT_FILE
    if snapshot_path.exists():
        snapshot = Snapshot.load(snapshot_path)
        database = snapshot.restore(name)
        floor = snapshot.wal_lsn
    else:
        database = Database(name=name or directory.name)
        floor = 0

    wal = WriteAheadLog(directory / WAL_FILE, sync=sync)
    last_lsn = floor
    enforce = database.enforce_foreign_keys
    database.enforce_foreign_keys = False  # replayed rows were already validated
    try:
        for record in wal.replay():
            lsn = record.get("lsn", 0)
            if lsn <= floor:
                # Crash between snapshot write and WAL truncation: the log
                # still holds records the snapshot already includes.
                continue
            replay_record(database, record)
            last_lsn = max(last_lsn, lsn)
    finally:
        database.enforce_foreign_keys = enforce
    if wal.torn_tail:
        wal.trim()
    wal.last_lsn = last_lsn
    return database, wal


def replay_record(database: Database, record: dict) -> None:
    """Apply one WAL record to a database (triggers never fire)."""
    kind = record.get("kind")
    if kind == "create_table":
        database.create_table(schema_from_record(record["schema"]))
    elif kind == "drop_table":
        database.drop_table(record["table"])
    elif kind == "create_index":
        database.create_index(record["table"], record["columns"], record["name"])
    elif kind == "load":
        table = database.table(record["table"])
        for row in record["rows"]:
            table.insert_row(tuple(row))
    elif kind == "apply":
        for delta in record["deltas"]:
            _replay_delta(database, delta)
    else:
        raise RecoveryError(f"unknown WAL record kind {kind!r}")


def _replay_delta(database: Database, delta: dict) -> None:
    """Apply one net (table, event) slice: remove old versions, add new ones."""
    table = database.table(delta["table"])
    schema = table.schema
    if schema.primary_key:
        # Net slices are key-disjoint: deleting the old versions first makes
        # UPDATE (same key) and DELETE+INSERT (key change) both land right.
        for row in delta["deleted"]:
            if table.delete_key(schema.key_of(tuple(row))) is None:
                raise RecoveryError(
                    f"replay: {delta['table']} row {tuple(row)!r} to delete not found"
                )
        for row in delta["inserted"]:
            table.insert_row(tuple(row))
    else:
        # Keyless tables have bag semantics; their logged slices are the raw
        # transition rows, so remove exactly one instance per deleted row.
        for row in delta["deleted"]:
            _delete_one_instance(table, tuple(row))
        for row in delta["inserted"]:
            table.insert_row(tuple(row))


def _delete_one_instance(table: Table, target: tuple) -> None:
    columns = table.schema.column_names
    matched: list[bool] = []

    def first_match(mapping: dict) -> bool:
        if matched:
            return False
        if tuple(mapping[column] for column in columns) == target:
            matched.append(True)
            return True
        return False

    if not table.delete_where(first_match):
        raise RecoveryError(
            f"replay: {table.name} row {target!r} to delete not found"
        )
