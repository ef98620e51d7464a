"""GROUPED-AGG against the Definition 2/3 oracle where compensation is subtle.

GROUPED-AGG (Section 5, Figure 16) never reads ``B_old``: it derives each
affected group's pre-update aggregates from the new-state ones and the
transition tables, and the compiled engine reads those new-state aggregates
off the ``NEW_NODE`` side's own group-by.  Two properties pin it to
:class:`~repro.core.baseline.MaterializedBaseline`:

* **No phantom OLD_NODE.**  On a ``having``-free copy of the catalog view
  pruning leaves the product group-by without aggregates; a group the
  statement *created* must still be absent from the old side (inserting the
  first vendor of a product fires INSERT, not UPDATE).  The compensation
  decides existence on a hidden row count.
* **Depth 3.**  Only the lowest level reads ``B_old``; the level above reads
  the *compensated* one — the old state — and must never be derived from the
  NEW side.  Spare top elements gain and lose their leaves (INSERT and DELETE
  of whole top nodes, as in the benchmark's ``fire_mixed_churn``), leaves
  come and go under populated tops and change price, per statement and per
  ``execute_batch``:
  compiled == interpreted value for value, in order, and both == oracle.

Randomness is reproducible from the session seed (``REPRO_TEST_SEED``, see
``docs/testing.md``); CI's stress step pins it and raises the budget.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))
_SETTINGS = settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _oracle_calls(oracle: MaterializedBaseline, statement) -> list[tuple]:
    _, _, calls = oracle.execute(statement)
    return [(c.trigger_name, c.key, serialize(c.new_node)) for c in calls]


def _fired(service: ActiveViewService, since: int) -> list[tuple]:
    return [
        (f.trigger, f.event, f.key, serialize(f.old_node), serialize(f.new_node))
        for f in service.fired[since:]
    ]


def _as_oracle(fired: list[tuple]) -> list[tuple]:
    """Trigger, key and NEW_NODE: GROUPED-AGG's OLD_NODE is shallow by design."""
    return sorted((trigger, key, new) for trigger, _, key, _, new in fired)


# ---------------------------------------------------------------------------
# No phantom OLD_NODE: a having-free catalog view
# ---------------------------------------------------------------------------

_CATALOG_TRIGGERS = [
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Upd AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name != 'none' DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]
_PIDS = ["P1", "P2", "P3", "P4"]
_VIDS = ["Amazon", "Bestbuy", "Newegg"]


def _having_free_catalog():
    view = catalog_view()
    view.roots[0].having = None
    return view


def _catalog_database():
    database = build_paper_database(with_foreign_keys=False)
    # P4 has no vendor yet, so it has no <product> node yet either.
    database.load_rows("product", [{"pid": "P4", "pname": "OLED 27", "mfr": "LG"}])
    return database


def _catalog_statement(action, database):
    kind, vid, pid, price = action
    present = database.table("vendor").get((vid, pid)) is not None
    if kind == "insert":
        return None if present else InsertStatement(
            "vendor", [{"vid": vid, "pid": pid, "price": float(price)}]
        )
    if kind == "update":
        return UpdateStatement("vendor", {"price": float(price)}, keys=[(vid, pid)])
    return DeleteStatement("vendor", keys=[(vid, pid)])


_catalog_actions = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.sampled_from(_VIDS),
        st.sampled_from(_PIDS),
        st.integers(10, 300),
    ),
    min_size=1,
    max_size=6,
)


@given(actions=_catalog_actions)
@example(actions=[("insert", "Amazon", "P4", 9)])  # the first vendor of P4
@_SETTINGS
def test_having_free_view_reports_no_phantom_old_node(actions):
    oracle_db = _catalog_database()
    oracle = MaterializedBaseline(oracle_db)
    oracle.register_view(_having_free_catalog())
    oracle.register_action("sink", lambda *args: None)
    for text in _CATALOG_TRIGGERS:
        oracle.create_trigger(parse_trigger(text))
    service_db = _catalog_database()
    service = ActiveViewService(service_db, mode=ExecutionMode.GROUPED_AGG)
    service.register_view(_having_free_catalog())
    service.register_action("sink", lambda *args: None)
    for text in _CATALOG_TRIGGERS:
        service.create_trigger(text)

    for action in actions:
        statement = _catalog_statement(action, service_db)
        if statement is None:
            continue
        marker = len(service.fired)
        service.execute(statement)
        expected = _oracle_calls(oracle, _catalog_statement(action, oracle_db))
        assert _as_oracle(_fired(service, marker)) == sorted(expected), action
    assert service.evaluation_report()["compiled_plan_fallbacks"] == 0


# ---------------------------------------------------------------------------
# Depth 3: a compensated level below a plain one
# ---------------------------------------------------------------------------

#: 6 top elements x 2 mid elements x 2 leaves: one deleted leaf takes its mid
#: below the view's ``count >= 2`` predicate, two take the top away.
_PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)
_WORKLOAD = HierarchyWorkload(_PARAMETERS)
_TOPS, _MIDS, _LEAVES = _WORKLOAD.nodes_per_level()
_SPARES = 3
_TOP = f"view('{_PARAMETERS.view_name}')/topelem"
#: Every trigger reads at most OLD_NODE's attributes, so GROUPED-AGG
#: compensates every event's old side.
_HIERARCHY_TRIGGERS = [
    f"CREATE TRIGGER upd AFTER UPDATE ON {_TOP} WHERE OLD_NODE/@name != 'none' "
    f"DO collect(NEW_NODE)",
    f"CREATE TRIGGER big AFTER UPDATE ON {_TOP} "
    f"WHERE count(NEW_NODE/midelem1/leafelem) >= 4 DO collect(NEW_NODE/@name)",
    f"CREATE TRIGGER ins AFTER INSERT ON {_TOP} DO collect(NEW_NODE)",
    f"CREATE TRIGGER del AFTER DELETE ON {_TOP} DO collect(OLD_NODE/@name)",
]


def _hierarchy_database():
    """The fixture plus ``_SPARES`` top elements with one leafless mid each."""
    database = _WORKLOAD.build_database()
    database.load_rows("top", [
        {"id": _TOPS + 1 + spare, "name": f"spare_{spare}", "mfr": "maker_s"}
        for spare in range(_SPARES)
    ])
    database.load_rows("mid1", [
        {"id": _MIDS + 1 + spare, "parent_id": _TOPS + 1 + spare, "name": f"S{spare}"}
        for spare in range(_SPARES)
    ])
    return database


def _mids_of(top: int) -> list[int]:
    if top > _TOPS:
        return [_MIDS + top - _TOPS]
    return [top + _TOPS * branch for branch in range(2)]


class _Stream:
    """Turns drawn actions into statements against the evolving data."""

    def __init__(self) -> None:
        self.next_leaf = _LEAVES + 1

    def statement(self, action, database):
        kind, top, pick, price = action
        leaves = database.table("leaf")
        if kind == "fill_spare":
            top = _TOPS + 1 + top % _SPARES
            if any(row[1] in _mids_of(top) for row in leaves.rows()):
                return top, None
            first = self.next_leaf
            self.next_leaf += 2
            mid = _mids_of(top)[0]
            return top, InsertStatement("leaf", [
                {"id": leaf, "parent_id": mid, "price": float(price), "code": f"new{leaf}"}
                for leaf in (first, first + 1)
            ])
        if kind == "empty_spare":
            top = _TOPS + 1 + top % _SPARES
            doomed = [row[0] for row in leaves.rows() if row[1] in _mids_of(top)]
            return top, DeleteStatement("leaf", keys=[(leaf,) for leaf in doomed]) if doomed else None
        top = 1 + top % _TOPS
        under = sorted(row[0] for row in leaves.rows() if row[1] in _mids_of(top))
        if kind == "insert_leaf":
            leaf = self.next_leaf
            self.next_leaf += 1
            mid = _mids_of(top)[pick % 2]
            return top, InsertStatement(
                "leaf", [{"id": leaf, "parent_id": mid, "price": float(price), "code": f"n{leaf}"}]
            )
        if not under:
            return top, None
        leaf = under[pick % len(under)]
        if kind == "delete_leaf":
            return top, DeleteStatement("leaf", keys=[(leaf,)])
        return top, UpdateStatement("leaf", {"price": 1000.0 + price}, keys=[(leaf,)])


_hierarchy_actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["update_leaf", "update_leaf", "insert_leaf", "delete_leaf",
             "fill_spare", "empty_spare"]
        ),
        st.integers(0, 11),
        st.integers(0, 7),
        st.integers(1, 500),
    ),
    min_size=1,
    max_size=10,
)


def _hierarchy_services():
    services = []
    for compiled in (True, False):
        service = ActiveViewService(
            _hierarchy_database(), mode=ExecutionMode.GROUPED_AGG,
            use_compiled_plans=compiled,
        )
        service.register_view(_WORKLOAD.build_view())
        service.register_action("collect", lambda node: None)
        service.register_triggers_bulk(_HIERARCHY_TRIGGERS)
        services.append(service)
    oracle = MaterializedBaseline(_hierarchy_database())
    oracle.register_view(_WORKLOAD.build_view())
    oracle.register_action("collect", lambda node: None)
    for text in _HIERARCHY_TRIGGERS:
        oracle.create_trigger(parse_trigger(text))
    return services, oracle


@given(actions=_hierarchy_actions)
@example(actions=[("fill_spare", 0, 0, 5), ("update_leaf", 1, 0, 7), ("empty_spare", 0, 0, 1)])
@_SETTINGS
def test_depth3_grouped_agg_per_statement_matches_oracle(actions):
    (compiled, interpreted), oracle = _hierarchy_services()
    stream = _Stream()
    for action in actions:
        _, statement = stream.statement(action, compiled.database)
        if statement is None:
            continue
        fired = []
        for service in (compiled, interpreted):
            marker = len(service.fired)
            service.execute(statement)
            fired.append(_fired(service, marker))
        assert fired[0] == fired[1], action
        assert _as_oracle(fired[0]) == sorted(_oracle_calls(oracle, statement)), action
    assert compiled.evaluation_report()["compiled_plan_fallbacks"] == 0


@given(actions=_hierarchy_actions)
@example(actions=[("fill_spare", 0, 0, 5), ("update_leaf", 1, 0, 7), ("fill_spare", 1, 0, 3)])
@_SETTINGS
def test_depth3_grouped_agg_batch_matches_oracle(actions):
    """One batch of statements on distinct top elements: a batch fires net
    transitions, which equal the per-statement ones only when no two
    statements touch one node."""
    (compiled, interpreted), oracle = _hierarchy_services()
    stream = _Stream()
    batch, tops = [], set()
    for action in actions:
        top, statement = stream.statement(action, compiled.database)
        if statement is None or top in tops:
            continue
        tops.add(top)
        batch.append(statement)
    if not batch:
        return
    fired = []
    for service in (compiled, interpreted):
        marker = len(service.fired)
        service.execute_batch(batch)
        fired.append(_fired(service, marker))
    assert fired[0] == fired[1]
    expected = sorted(call for statement in batch for call in _oracle_calls(oracle, statement))
    assert _as_oracle(fired[0]) == expected
    assert compiled.evaluation_report()["compiled_plan_fallbacks"] == 0
