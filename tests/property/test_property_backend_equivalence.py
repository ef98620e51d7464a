"""Property-based equivalence: SQLite backend == compiled == interpreted == oracle.

PR 5 adds the SQLite execution backend (:mod:`repro.backends.sqlite`): base
tables are mirrored into SQLite by replaying the commit-listener delta
stream, and the generated trigger plans are lowered to executable SQLite SQL
(JSON node construction + Python finishing pass).  These properties pin the
backend to every in-memory engine — and to the MATERIALIZED oracle — on
randomized workloads:

* per-statement execution through ``ActiveViewService(backend="sqlite")``
  across all three execution modes, comparing full activation content
  (trigger, key, and the *serialized* old/new nodes, so a finishing-pass
  divergence cannot hide);
* the set-oriented batch path (``execute_batch`` — net coalesced deltas,
  one backend statement per (table, event) slice);
* the relational mirror itself: after every run, SQLite's table contents
  must equal the in-memory database's.

The comparison cannot pass vacuously: a translation the backend cannot
lower fails ``CREATE TRIGGER``, so every firing of a backend service comes
from SQLite.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))

TRIGGERS = [
    "CREATE TRIGGER UpdCrt AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE)",
    "CREATE TRIGGER UpdAny AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER UpdBig AFTER UPDATE ON view('catalog')/product "
    "WHERE count(NEW_NODE/vendor) >= 3 DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]

_PIDS = ["P1", "P2", "P3", "P4"]
_VIDS = ["Amazon", "Bestbuy", "Circuitcity", "Buy.com", "Newegg", "Walmart"]

_actions = st.one_of(
    st.builds(
        lambda vid, pid, price: ("insert_vendor", vid, pid, price),
        st.sampled_from(_VIDS), st.sampled_from(_PIDS), st.integers(10, 300),
    ),
    st.builds(
        lambda vid, pid, price: ("update_price", vid, pid, price),
        st.sampled_from(_VIDS), st.sampled_from(_PIDS), st.integers(10, 300),
    ),
    st.builds(lambda vid, pid: ("delete_vendor", vid, pid),
              st.sampled_from(_VIDS), st.sampled_from(_PIDS)),
    st.builds(lambda pid, name: ("rename_product", pid, name),
              st.sampled_from(_PIDS), st.sampled_from(["CRT 15", "LCD 19", "OLED 27"])),
)


def _to_statement(action, database):
    kind = action[0]
    if kind == "insert_vendor":
        _, vid, pid, price = action
        if database.table("vendor").get((vid, pid)) is not None:
            return None  # would violate the primary key
        return InsertStatement("vendor", [{"vid": vid, "pid": pid, "price": float(price)}])
    if kind == "update_price":
        _, vid, pid, price = action
        return UpdateStatement(
            "vendor", {"price": float(price)},
            where=lambda r, vid=vid, pid=pid: r["vid"] == vid and r["pid"] == pid,
        )
    if kind == "delete_vendor":
        _, vid, pid = action
        return DeleteStatement(
            "vendor", where=lambda r, vid=vid, pid=pid: r["vid"] == vid and r["pid"] == pid
        )
    _, pid, name = action
    return UpdateStatement(
        "product", {"pname": name}, where=lambda r, pid=pid: r["pid"] == pid
    )


def _build_service(mode, *, backend=None, use_compiled=False):
    db = build_paper_database(with_foreign_keys=False)
    db.load_rows("product", [{"pid": "P4", "pname": "OLED 27", "mfr": "LG"}])
    service = ActiveViewService(
        db, mode=mode, use_compiled_plans=use_compiled, backend=backend
    )
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    for text in TRIGGERS:
        service.create_trigger(text)
    return db, service


def _build_oracle():
    db = build_paper_database(with_foreign_keys=False)
    db.load_rows("product", [{"pid": "P4", "pname": "OLED 27", "mfr": "LG"}])
    oracle = MaterializedBaseline(db)
    oracle.register_view(catalog_view())
    oracle.register_action("sink", lambda *args: None)
    for text in TRIGGERS:
        oracle.create_trigger(parse_trigger(text))
    return db, oracle


def _serialized(node):
    return serialize(node) if node is not None else None


def _normalize(fired):
    return sorted(
        (f.trigger, f.key, _serialized(f.old_node), _serialized(f.new_node))
        for f in fired
    )


def _assert_mirror_matches(database, service):
    backend = service.backend
    for table in database.table_names():
        mirrored = sorted(tuple(row) for row in backend.mirror_rows(table))
        assert mirrored == sorted(database.table(table).rows()), table


@pytest.mark.parametrize(
    "mode", [ExecutionMode.UNGROUPED, ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG]
)
@given(actions=st.lists(_actions, min_size=1, max_size=6))
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_sqlite_matches_all_engines_and_oracle(mode, actions):
    oracle_db, oracle = _build_oracle()
    interp_db, interp = _build_service(mode, use_compiled=False)
    comp_db, comp = _build_service(mode, use_compiled=True)
    sqlite_db, sqlite_service = _build_service(mode, backend="sqlite")

    oracle_log = []
    for action in actions:
        statements = [
            _to_statement(action, db)
            for db in (oracle_db, interp_db, comp_db, sqlite_db)
        ]
        if any(statement is None for statement in statements):
            continue
        _, _, calls = oracle.execute(statements[0])
        oracle_log.extend(
            (c.trigger_name, c.key, _serialized(c.new_node)) for c in calls
        )
        interp.execute(statements[1])
        comp.execute(statements[2])
        sqlite_service.execute(statements[3])

    sqlite_log = _normalize(sqlite_service.fired)
    assert sqlite_log == _normalize(interp.fired) == _normalize(comp.fired)
    assert sorted((t, k, new) for t, k, _, new in sqlite_log) == sorted(oracle_log)
    # Same final relational state everywhere — including inside the mirror.
    assert sqlite_db.snapshot() == interp_db.snapshot() == oracle_db.snapshot()
    _assert_mirror_matches(sqlite_db, sqlite_service)
    # The backend actually served firings (at least one statement executed
    # per qualifying (table, event) firing when anything changed).
    if sqlite_log:
        assert sqlite_service.evaluation_report()["backend_statements"] > 0


@given(
    actions=st.lists(_actions, min_size=1, max_size=8),
    batch_size=st.integers(1, 4),
)
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sqlite_matches_interpreted_on_batches(actions, batch_size):
    """Set-oriented batches: one backend statement per net (table, event) slice."""
    interp_db, interp = _build_service(ExecutionMode.UNGROUPED, use_compiled=False)
    sqlite_db, sqlite_service = _build_service(ExecutionMode.UNGROUPED, backend="sqlite")

    for start in range(0, len(actions), batch_size):
        chunk = actions[start:start + batch_size]
        interp_chunk = [
            s for s in (_to_statement(a, interp_db) for a in chunk) if s is not None
        ]
        sqlite_chunk = [
            s for s in (_to_statement(a, sqlite_db) for a in chunk) if s is not None
        ]
        assert len(interp_chunk) == len(sqlite_chunk)
        if not interp_chunk:
            continue
        # A failing statement leaves its predecessors applied; both engines
        # must fail alike, and the mirror must still hold the applied prefix.
        errors = []
        for service, batch_chunk in ((interp, interp_chunk), (sqlite_service, sqlite_chunk)):
            try:
                service.execute_batch(batch_chunk)
                errors.append(None)
            except Exception as error:
                errors.append(type(error).__name__)
        assert errors[0] == errors[1]
        assert sqlite_db.snapshot() == interp_db.snapshot()
        _assert_mirror_matches(sqlite_db, sqlite_service)

    assert _normalize(sqlite_service.fired) == _normalize(interp.fired)


def test_sqlite_matches_on_generated_hierarchy_workload():
    """The Figure 17 workload shape (nested fragments, min/max aggregates,
    generated triggers) lowers fully and fires identically on SQLite."""
    from repro.workloads import ExperimentHarness, WorkloadParameters

    parameters = WorkloadParameters(depth=2, leaf_tuples=256, fanout=16,
                                    num_triggers=12, satisfied_triggers=4, seed=21)
    harness = ExperimentHarness(parameters, updates=1)
    setup_i = harness.build_setup(parameters, ExecutionMode.GROUPED_AGG,
                                  use_compiled_plans=False)
    setup_b = harness.build_setup(parameters, ExecutionMode.GROUPED_AGG,
                                  backend="sqlite")
    statements_i = setup_i.workload.update_statements(30, setup_i.database)
    statements_b = setup_b.workload.update_statements(30, setup_b.database)
    for a, b in zip(statements_i, statements_b):
        setup_i.run_statement(a)
        setup_b.run_statement(b)
    assert _normalize(setup_b.service.fired) == _normalize(setup_i.service.fired)
    assert setup_b.service.fired, "the property is vacuous if nothing fired"
    report = setup_b.service.evaluation_report()
    assert report["backend_statements"] > 0
