"""Unit tests for the SQLite execution backend (mirror, lowering, finishing)."""

from __future__ import annotations

import pytest

from repro.backends import BackendError, BackendLoweringError, SqliteBackend, create_backend
from repro.core.service import ActiveViewService, ExecutionMode
from repro.core.sqlgen import SqlLoweringError, lower_plan_for_sqlite
from repro.errors import TriggerCompilationError
from repro.relational import Column, DataType, Database, TableSchema
from repro.relational.dml import Batch, DeleteStatement, InsertStatement, UpdateStatement
from repro.relational.triggers import TriggerEvent
from repro.xmlmodel import serialize
from repro.xmlmodel.node import Element, Fragment, Text
from repro.xqgm.operators import TableOp, UnnestOp
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database


# ---------------------------------------------------------------------------
# The finishing pass
# ---------------------------------------------------------------------------


def test_finish_node_element_text_and_attributes():
    from repro.backends.sqlite import finish_node

    node = finish_node(
        ["e", "product", {"name": "CRT 15", "rank": 2}, ["t", "hello"], None, 7]
    )
    assert isinstance(node, Element)
    assert node.attribute("name") == "CRT 15"
    assert node.attribute("rank") == "2"
    # None children vanish; scalars become text nodes.
    assert [type(child) for child in node.children] == [Text, Text]
    assert node.string_value() == "hello7"


def test_finish_node_fragment_sorts_by_embedded_keys_and_splices():
    from repro.backends.sqlite import finish_node

    fragment = finish_node(
        ["f", 1, [
            [2, ["e", "v", {}, ["t", "second"]]],
            [1, ["e", "v", {}, ["t", "first"]]],
        ]]
    )
    assert isinstance(fragment, Fragment)
    assert [item.string_value() for item in fragment.items] == ["first", "second"]
    # Fragments splice into elements exactly like the constructors do.
    parent = finish_node(["e", "p", {}, ["f", 1, [[1, ["t", "a"]], [2, ["t", "b"]]]]])
    assert [type(child) for child in parent.children] == [Text, Text]


def test_finish_node_decodes_lossless_reals():
    from repro.backends.sqlite import finish_node

    # 17 significant digits round-trip the exact IEEE-754 value, whose
    # Python-side formatting is then shortest-round-trip.
    node = finish_node(["e", "x", {"p": ["r", "300.34999999999996589"]},
                        ["r", "189.50999999999999091"]])
    assert node.attribute("p") == "300.34999999999997"
    assert node.string_value() == "189.51"


def test_finish_node_rejects_malformed_trees():
    from repro.backends.sqlite import finish_node

    assert finish_node(None) is None
    with pytest.raises(BackendError):
        finish_node(["?", 1])
    with pytest.raises(BackendError):
        finish_node("just text")


# ---------------------------------------------------------------------------
# The relational mirror
# ---------------------------------------------------------------------------


def _mirror(backend: SqliteBackend, table: str) -> list[tuple]:
    return sorted(tuple(row) for row in backend.mirror_rows(table))


def test_attach_mirrors_existing_tables_and_follows_commits():
    db = build_paper_database(with_foreign_keys=False)
    backend = SqliteBackend()
    backend.attach(db)
    assert _mirror(backend, "vendor") == sorted(db.table("vendor").rows())

    # Per-statement DML, batches, and trigger-bypassing loads all replay.
    db.insert("vendor", {"vid": "Newegg", "pid": "P2", "price": 210.0})
    db.update("vendor", {"price": 99.0}, where=lambda r: r["pid"] == "P1")
    db.delete("vendor", where=lambda r: r["vid"] == "Bestbuy")
    db.execute_many(Batch([
        InsertStatement("vendor", [{"vid": "Walmart", "pid": "P3", "price": 77.0}]),
        UpdateStatement("vendor", {"price": 88.0},
                        where=lambda r: r["vid"] == "Walmart"),
        DeleteStatement("vendor", where=lambda r: r["vid"] == "Amazon"),
    ]))
    db.load_rows("product", [{"pid": "P9", "pname": "Plasma 42", "mfr": "LG"}])
    assert _mirror(backend, "vendor") == sorted(db.table("vendor").rows())
    assert _mirror(backend, "product") == sorted(db.table("product").rows())
    backend.close()


def test_mirror_tracks_ddl_and_keyless_bag_semantics():
    db = Database("ddl")
    backend = SqliteBackend()
    backend.attach(db)
    db.create_table(TableSchema("logline", [Column("msg", DataType.TEXT)]))
    db.insert("logline", [{"msg": "a"}, {"msg": "a"}, {"msg": "b"}])
    # Keyless delete removes one occurrence per delta row (bag semantics).
    db.execute(DeleteStatement("logline", where=lambda r: r["msg"] == "a"))
    assert _mirror(backend, "logline") == sorted(db.table("logline").rows())
    db.create_index("logline", ["msg"])
    db.drop_table("logline")
    with pytest.raises(Exception):
        backend.mirror_rows("logline")
    backend.close()


def test_mirror_keeps_applied_prefix_of_failing_batch():
    db = build_paper_database(with_foreign_keys=False)
    backend = SqliteBackend()
    backend.attach(db)
    with pytest.raises(Exception):
        db.execute_many(Batch([
            InsertStatement("vendor", [{"vid": "Newegg", "pid": "P1", "price": 1.0}]),
            # Duplicate primary key: the batch fails here.
            InsertStatement("vendor", [{"vid": "Amazon", "pid": "P1", "price": 2.0}]),
        ]))
    assert _mirror(backend, "vendor") == sorted(db.table("vendor").rows())
    backend.close()


def test_booleans_mirror_as_integers():
    db = Database("flags")
    db.create_table(TableSchema(
        "flag",
        [Column("id", DataType.INTEGER, nullable=False), Column("on", DataType.BOOLEAN)],
        primary_key=["id"],
    ))
    backend = SqliteBackend()
    backend.attach(db)
    db.insert("flag", [{"id": 1, "on": True}, {"id": 2, "on": False}])
    assert _mirror(backend, "flag") == [(1, 1), (2, 0)]
    backend.close()


# ---------------------------------------------------------------------------
# Lowering limits and the service fallback
# ---------------------------------------------------------------------------


def test_unnest_has_no_sqlite_lowering():
    table = TableOp("product", "P", ["pid", "pname", "mfr"])
    plan = UnnestOp(table, "P.pname", "item")
    with pytest.raises(SqlLoweringError):
        lower_plan_for_sqlite(
            plan, "product",
            {"product": build_paper_database().schema("product")},
        )


def test_modulo_has_no_sqlite_lowering_and_text_plus_concatenates():
    import sqlite3

    from repro.core.sqlgen import _SqliteExpr
    from repro.xqgm.expressions import Arithmetic, Constant

    expr = _SqliteExpr(frozenset())
    # Python '%' is floored, SQLite's truncated: refuse rather than diverge.
    with pytest.raises(SqlLoweringError):
        expr.scalar(Arithmetic("%", Constant(-7), Constant(3)))
    # Python '+' over two strings concatenates; the lowering mirrors that.
    conn = sqlite3.connect(":memory:")
    sql = expr.scalar(Arithmetic("+", Constant("a"), Constant("b")))
    assert conn.execute(f"SELECT {sql}").fetchone()[0] == "ab"
    sql = expr.scalar(Arithmetic("+", Constant(2), Constant(3)))
    assert conn.execute(f"SELECT {sql}").fetchone()[0] == 5


def test_recreating_a_table_rebuilds_its_transition_temp_tables():
    """drop_table must drop the __trg_* temps: a same-named table recreated
    with a different schema would otherwise inherit the stale column layout."""
    db = Database("recreate")
    backend = SqliteBackend()
    backend.attach(db)
    db.create_table(TableSchema(
        "t", [Column("a", DataType.INTEGER, nullable=False)], primary_key=["a"]
    ))
    backend._ensure_transition_tables("t")
    db.drop_table("t")
    temp_names = {
        row[0]
        for row in backend._conn.execute("SELECT name FROM sqlite_temp_master")
    }
    assert not any(name.startswith("__trg_t_") for name in temp_names)
    # Recreate with two columns; the temp tables must pick up the new arity.
    db.create_table(TableSchema(
        "t",
        [Column("a", DataType.INTEGER, nullable=False), Column("b", DataType.TEXT)],
        primary_key=["a"],
    ))
    backend._ensure_transition_tables("t")
    columns = backend._conn.execute(
        'SELECT COUNT(*) FROM pragma_table_info("__trg_t_delta_inserted")'
    ).fetchone()[0]
    assert columns == 2
    backend.close()


def test_service_close_uninstalls_its_triggers_and_detaches_the_mirror():
    trigger = "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"

    def price_update(price):
        return UpdateStatement(
            "vendor", {"price": price},
            where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
        )

    def build(db):
        service = ActiveViewService(db, backend="sqlite")
        service.register_view(catalog_view())
        service.register_action("sink", lambda *args: None)
        service.create_trigger(trigger)
        return service

    db = build_paper_database(with_foreign_keys=False)
    sql_triggers = [t.name for t in db.triggers()]
    service = build(db)
    assert len(db.triggers()) > len(sql_triggers)
    backend = service.backend
    mirrored = backend.rows_mirrored
    assert mirrored > 0
    ddl: list[str] = []
    service.add_ddl_listener(lambda kind, payload: ddl.append(kind))
    service.close()
    assert service.backend is None
    service.close()  # idempotent
    assert [t.name for t in db.triggers()] == sql_triggers
    assert service.triggers == []
    assert service.group_count() == 0
    assert ddl == []  # closing is not dropping

    # The database outlives the service: its DML commits, the closed
    # service's triggers no longer fire and its mirror no longer grows.
    db.execute(price_update(91.0))
    assert backend.rows_mirrored == mirrored
    assert service.fired == []
    # A second service on the same database installs and fires.
    other = build(db)
    other.execute(price_update(92.0))
    assert [f.trigger for f in other.fired] == ["T"]
    assert service.fired == []
    other.close()


def test_old_state_of_keyless_table_has_no_sqlite_lowering():
    from repro.xqgm.operators import TableVariant

    schema = TableSchema("logline", [Column("msg", DataType.TEXT)])
    plan = TableOp("logline", "L", ["msg"], variant=TableVariant.OLD)
    with pytest.raises(SqlLoweringError):
        lower_plan_for_sqlite(plan, "logline", {"logline": schema})


def test_sqlite_refusal_fails_create_trigger_and_leaves_nothing(monkeypatch):
    trigger = "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"
    price_update = UpdateStatement(
        "vendor", {"price": 90.0},
        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
    )

    def build(backend):
        db = build_paper_database(with_foreign_keys=False)
        service = ActiveViewService(db, use_compiled_plans=backend is not None,
                                    backend=backend)
        service.register_view(catalog_view())
        service.register_action("sink", lambda *args: None)
        return service

    service = build("sqlite")
    sql_triggers = [t.name for t in service.database.triggers()]

    # The first translation lowers, the second is refused: the group's
    # prepared statement for the first must not outlive the failure either.
    prepare = SqliteBackend.prepare
    prepared: list[str] = []

    def refuse_second(self, translation):
        prepared.append(translation.table)
        if len(prepared) > 1:
            raise BackendLoweringError("nope")
        return prepare(self, translation)

    monkeypatch.setattr(SqliteBackend, "prepare", refuse_second)
    with pytest.raises(TriggerCompilationError, match="nope"):
        service.create_trigger(trigger)
    assert len(prepared) == 2
    assert service.triggers == []
    assert service.group_count() == 0
    assert [t.name for t in service.database.triggers()] == sql_triggers
    assert service.evaluation_report()["backend_plans"] == 0

    monkeypatch.undo()
    service.create_trigger(trigger)
    assert service.evaluation_report()["backend_plans"] > 0
    interpreted = build(None)
    interpreted.create_trigger(trigger)
    for twin in (service, interpreted):
        twin.execute(price_update)

    def fired(twin):
        return [(f.trigger, f.event, f.key, serialize(f.old_node), serialize(f.new_node))
                for f in twin.fired]

    assert fired(service) == fired(interpreted)
    assert [f.trigger for f in service.fired] == ["T"]
    assert service.evaluation_report()["backend_statements"] > 0


def test_sqlite_refusal_fails_bulk_registration_and_leaves_nothing(monkeypatch):
    """A refused lowering of a later spec aborts the whole batch: the
    earlier specs' groups, SQL triggers, plans and DDL never appear."""
    triggers = [
        "CREATE TRIGGER A AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)",
        "CREATE TRIGGER B AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE)",
    ]
    db = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(db, backend="sqlite")
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    ddl: list[str] = []
    service.add_ddl_listener(lambda kind, payload: ddl.append(kind))
    sql_triggers = [t.name for t in db.triggers()]

    prepare = SqliteBackend.prepare
    prepared: list[TriggerEvent] = []

    def refuse_deletes(self, translation):
        prepared.append(translation.xml_event)
        if translation.xml_event is TriggerEvent.DELETE:
            raise BackendLoweringError("nope")
        return prepare(self, translation)

    monkeypatch.setattr(SqliteBackend, "prepare", refuse_deletes)
    with pytest.raises(TriggerCompilationError, match="nope"):
        service.register_triggers_bulk(triggers)
    assert TriggerEvent.UPDATE in prepared  # A did lower before B failed
    assert service.triggers == []
    assert service.group_count() == 0
    assert [t.name for t in db.triggers()] == sql_triggers
    assert service.evaluation_report()["backend_plans"] == 0
    assert ddl == []

    monkeypatch.undo()
    service.register_triggers_bulk(triggers)
    assert [spec.name for spec in service.triggers] == ["A", "B"]
    assert ddl == ["create_trigger", "create_trigger"]
    service.execute(UpdateStatement(
        "vendor", {"price": 90.0},
        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
    ))
    service.execute(DeleteStatement("product", where=lambda r: r["pid"] == "P2"))
    assert [f.trigger for f in service.fired] == ["A", "B"]


def test_drop_view_evicts_backend_plans():
    db = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(db, backend="sqlite")
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    service.create_trigger(
        "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"
    )
    assert service.evaluation_report()["backend_plans"] > 0
    service.drop_view("catalog")
    assert service.evaluation_report()["backend_plans"] == 0


def test_create_backend_registry():
    assert isinstance(create_backend("sqlite"), SqliteBackend)
    backend = SqliteBackend()
    assert create_backend(backend) is backend
    with pytest.raises(BackendError):
        create_backend("teradata")
    with pytest.raises(BackendError):
        create_backend(object())


# ---------------------------------------------------------------------------
# End-to-end on the paper's example
# ---------------------------------------------------------------------------


def test_paper_example_fires_identically_on_sqlite():
    def build(backend):
        db = build_paper_database(with_foreign_keys=False)
        service = ActiveViewService(db, mode=ExecutionMode.GROUPED_AGG,
                                    use_compiled_plans=False, backend=backend)
        service.register_view(catalog_view())
        service.register_action("sink", lambda *args: None)
        for text in (
            "CREATE TRIGGER Upd AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)",
            "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE)",
            "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE)",
        ):
            service.create_trigger(text)
        return db, service

    db_interp, interp = build(None)
    db_sqlite, on_sqlite = build("sqlite")
    statements = [
        UpdateStatement("vendor", {"price": 90.0},
                        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1"),
        InsertStatement("vendor", [{"vid": "Newegg", "pid": "P2", "price": 210.0}]),
        DeleteStatement("vendor", where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P3"),
        UpdateStatement("product", {"pname": "LCD 19"}, where=lambda r: r["pid"] == "P3"),
    ]
    for statement in statements:
        interp.execute(statement)
        on_sqlite.execute(statement)

    def norm(fired):
        return [
            (f.trigger, f.key,
             serialize(f.old_node) if f.old_node is not None else None,
             serialize(f.new_node) if f.new_node is not None else None)
            for f in fired
        ]

    assert sorted(norm(on_sqlite.fired)) == sorted(norm(interp.fired))
    assert on_sqlite.fired, "nothing fired — the comparison is vacuous"
    assert on_sqlite.evaluation_report()["backend_statements"] > 0
