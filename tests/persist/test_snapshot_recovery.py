"""Snapshots and recover_database: state equality, idempotence, DDL replay."""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError
from repro.persist import DurableServer, Snapshot, recover_database
from repro.relational import Column, DataType, TableSchema
from repro.relational.dml import (
    Batch,
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
)
from repro.xqgm.views import catalog_view

from tests.conftest import PRODUCTS, VENDORS, build_paper_database


def test_snapshot_round_trip(tmp_path):
    database = build_paper_database()
    database.create_index("vendor", ["pid"])
    snapshot = Snapshot.capture(database, wal_lsn=17)
    snapshot.write(tmp_path / "snap.bin")
    loaded = Snapshot.load(tmp_path / "snap.bin")
    assert loaded.wal_lsn == 17
    restored = loaded.restore()
    assert restored.snapshot() == database.snapshot()
    assert restored.table_names() == database.table_names()
    # Secondary indexes (and their names) survive.
    assert restored.table("vendor").has_index_on(("pid",))
    # Schemas survive in full (PKs, FKs) and the restored engine enforces them.
    assert restored.schema("vendor") == database.schema("vendor")
    assert restored.enforce_foreign_keys == database.enforce_foreign_keys


def test_snapshot_checksum_detects_corruption(tmp_path):
    database = build_paper_database()
    Snapshot.capture(database).write(tmp_path / "snap.bin")
    data = bytearray((tmp_path / "snap.bin").read_bytes())
    data[-1] ^= 0xFF
    (tmp_path / "snap.bin").write_bytes(bytes(data))
    with pytest.raises(RecoveryError):
        Snapshot.load(tmp_path / "snap.bin")


def _attach_fresh(tmp_path):
    database, wal = recover_database(tmp_path, name="node")
    wal.attach(database)
    return database, wal


def test_recover_empty_directory_is_fresh(tmp_path):
    database, wal = recover_database(tmp_path / "node")
    assert database.table_names() == []
    assert wal.last_lsn == 0


def test_wal_only_recovery_reproduces_every_prefix(tmp_path):
    database, wal = _attach_fresh(tmp_path)
    # DDL, load, per-statement and batched DML all through the log.
    for schema_source in build_paper_database()._tables.values():
        database.create_table(schema_source.schema)
    database.load_rows("product", PRODUCTS)
    database.load_rows("vendor", VENDORS)
    database.execute(UpdateStatement("vendor", {"price": 1.0}, keys=[("Amazon", "P1")]))
    database.execute_many(
        Batch([
            InsertStatement("vendor", [{"vid": "Target", "pid": "P2", "price": 8.0}]),
            DeleteStatement("vendor", keys=[("Bestbuy", "P1")]),
            UpdateStatement("product", {"mfr": "LG"}, keys=[("P2",)]),
        ])
    )
    recovered, recovered_wal = recover_database(tmp_path, name="node")
    assert recovered.snapshot() == database.snapshot()
    assert recovered_wal.last_lsn == wal.last_lsn
    # Recovery replays rows directly: no triggers fired, no statements re-ran.
    assert recovered.statement_log == []


def test_snapshot_then_wal_tail(tmp_path):
    durable = DurableServer(tmp_path, views=[catalog_view()])
    database = durable.sharded.shards[0]
    for schema_source in build_paper_database()._tables.values():
        database.create_table(schema_source.schema)
    database.load_rows("product", PRODUCTS)
    database.load_rows("vendor", VENDORS)
    durable.snapshot()  # truncates the WAL
    lsn = durable.wals[0].last_lsn
    for step in range(5):
        database.execute(
            UpdateStatement("vendor", {"price": 3.0 + step}, keys=[("Amazon", "P1")])
        )
    recovered, wal = recover_database(tmp_path / "shard0", name="node")
    assert recovered.snapshot() == database.snapshot()
    # Recovery replays the tail written after the snapshot and nothing older.
    assert len(list(wal.replay())) == durable.wals[0].last_lsn - lsn == 5


def test_overlapping_snapshot_and_wal_do_not_double_apply(tmp_path):
    """Crash between snapshot write and WAL truncation must stay consistent."""
    database, wal = _attach_fresh(tmp_path)
    database.create_table(
        TableSchema("t", [Column("k", DataType.INTEGER, nullable=False),
                          Column("v", DataType.INTEGER)], primary_key=["k"])
    )
    database.insert("t", [{"k": 1, "v": 10}])
    database.update("t", lambda row: {"v": row["v"] + 1}, where=lambda row: row["k"] == 1)
    # Snapshot written, WAL NOT truncated (the crash window).
    Snapshot.capture(database, wal_lsn=wal.last_lsn).write(tmp_path / "snapshot.bin")
    database.update("t", lambda row: {"v": row["v"] + 1}, where=lambda row: row["k"] == 1)
    recovered, _ = recover_database(tmp_path, name="node")
    # 12, not 13: pre-snapshot records were skipped by LSN, the tail replayed.
    assert recovered.table("t").get((1,)) == (1, 12)


def test_keyless_table_bag_replay(tmp_path):
    database, wal = _attach_fresh(tmp_path)
    database.create_table(
        TableSchema("events", [Column("tag", DataType.TEXT), Column("n", DataType.INTEGER)])
    )
    database.insert("events", [{"tag": "a", "n": 1}, {"tag": "a", "n": 1},
                               {"tag": "b", "n": 2}])
    database.delete("events", where=lambda row: row["tag"] == "a")
    database.insert("events", [{"tag": "a", "n": 1}])
    recovered, _ = recover_database(tmp_path, name="node")
    assert sorted(recovered.table("events").rows()) == sorted(database.table("events").rows())


def _open(directory, actions):
    return DurableServer(directory, views=[catalog_view()], actions=actions)


def test_drop_table_and_drop_view_replay(tmp_path):
    durable = _open(tmp_path, {"notify": lambda *a: None})
    database = durable.sharded.shards[0]
    for schema_source in build_paper_database()._tables.values():
        database.create_table(schema_source.schema)
    database.load_rows("product", PRODUCTS)
    database.load_rows("vendor", VENDORS)
    durable.ensure_view(catalog_view())
    durable.ensure_trigger(
        "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
    )
    durable.server.drop_view("catalog")  # cascades: trigger dropped too
    reopened = _open(tmp_path, {"notify": lambda *a: None})
    assert reopened.server.services[0].views == []
    assert reopened.server.triggers == []


def test_drop_view_then_drop_tables_still_recovers(tmp_path):
    """Registry replay is *net*: a registration cancelled by a later drop is
    never re-validated, so dropping the view's backing tables afterwards must
    not poison the directory."""
    durable = _open(tmp_path, {"notify": lambda *a: None})
    database = durable.sharded.shards[0]
    for schema_source in build_paper_database()._tables.values():
        database.create_table(schema_source.schema)
    durable.ensure_view(catalog_view())
    durable.ensure_trigger(
        "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
    )
    durable.server.drop_view("catalog")
    database.drop_table("vendor")
    database.drop_table("product")
    durable.close()
    reopened = _open(tmp_path, {"notify": lambda *a: None})
    assert reopened.server.services[0].views == []
    assert reopened.sharded.table_names() == []


def test_recovered_registry_fires_on_new_work(tmp_path):
    notified: list = []
    durable = _open(tmp_path, {"notify": notified.append})
    database = durable.sharded.shards[0]
    for schema_source in build_paper_database()._tables.values():
        database.create_table(schema_source.schema)
    database.load_rows("product", PRODUCTS)
    database.load_rows("vendor", VENDORS)
    durable.ensure_view(catalog_view())
    durable.ensure_trigger(
        "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product "
        "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
    )
    with durable:
        durable.execute(UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")]))
    assert [fired.trigger for fired in durable.server.fired] == ["W"]

    # Reopen without close(): the crash simulation.
    relit: list = []
    reopened = _open(tmp_path, {"notify": relit.append})
    assert reopened.server.fired == []  # replay fired nothing
    with reopened:
        reopened.execute(UpdateStatement("vendor", {"price": 41.0}, keys=[("Amazon", "P1")]))
    assert [fired.trigger for fired in reopened.server.fired] == ["W"]
    assert len(relit) == 1
