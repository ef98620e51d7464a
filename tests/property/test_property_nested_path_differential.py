"""Triggers on every level of a view, nested ones included, against the oracle.

A trigger may monitor any element of the view, not only its top level
(Section 2.2), and CreateAKGraph is exact "even in the presence of nested
predicates" (Section 4).  Each case creates triggers on one path, runs
statements that insert, update and delete elements on it — per statement
and through ``execute_batch`` — and compares what fired with
:class:`~repro.core.baseline.MaterializedBaseline`, which diffs the
materialized path before and after each statement:

* ``view('catalog')/product/vendor`` (the paper's running example), one
  statement per XML event;
* the hierarchy view at depths 2–4, every level from ``/topelem`` down to
  the leaves, one trigger per XML event and a statement on each table:
  leaf price, leaf insert and delete (a lowest parent drops below the
  ``count >= 2`` predicate, a later insert brings it back), a leaf moved
  between two subtrees, a renamed intermediate and a renamed top element
  (whose nested elements do not change: an unchanged sibling under an
  affected ancestor must not fire), a new top element without children,
  and a whole subtree deleted and inserted again;
* the same view without foreign keys, on the nested levels: a top row
  deleted while its subtree stays in the tables, then inserted again.

In every mode the firings — trigger, event, key and both nodes — must
equal the oracle's under the one OLD_NODE rule of
:mod:`tests.property.differential`: where a translation uses
GROUPED-AGG's compensated OLD_NODE side, OLD_NODE is compared by its
attributes.  That side may serve a translation only where its affected
keys name changed tuples, never where an affected-key graph was reached
through several legs of one join.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.service import ExecutionMode
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database
from tests.property.differential import BATCH, COMPILED, MODES, ORACLE, Scenario, fired, replay

_ENGINES = pytest.mark.parametrize("engine", [COMPILED, BATCH], ids=["execute", "execute_batch"])

#: The node each trigger's action reads: DELETE has no NEW_NODE.
_ACTIONS = {"INSERT": "NEW_NODE", "UPDATE": "NEW_NODE", "DELETE": "OLD_NODE"}


def _trigger(view: str, path: str, event: str) -> str:
    return (
        f"CREATE TRIGGER {event} AFTER {event} ON view('{view}')/{path} "
        f"DO sink({_ACTIONS[event]})"
    )


def _translation(service, trigger: str, table: str):
    """The translation through which ``trigger`` fires on ``table``, if any."""
    compiled = service._groups[service._group_signature(service._triggers[trigger])]
    return compiled.translations.get(table)


def _run(scenario, statements, mode, engine):
    """``(service, oracle's records)`` for ``statements``, one step each, on
    the oracle and ``engine``."""
    run = replay(scenario, [ORACLE, engine], [[statement] for statement in statements], mode)
    return run.targets[engine.name], fired(run)


def _assert_compensation_gated(service) -> None:
    """Compensation serves no translation whose affected keys were reached
    through several legs of one join."""
    for compiled in service._groups.values():
        for translation in compiled.translations.values():
            crossed = translation.sides.reference.multi_leg_join
            assert not (translation.uses_compensation and crossed)


# ---------------------------------------------------------------------------
# /product/vendor
# ---------------------------------------------------------------------------

# One statement per XML event on /product/vendor; the UPDATE is the
# quickstart's (the oracle fires T for ('CRT 15', 'Amazon', 'P1')).
_CATALOG_STATEMENTS = {
    "UPDATE": UpdateStatement(
        "vendor", {"price": 75.0},
        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
    ),
    "INSERT": InsertStatement("vendor", [{"vid": "Newegg", "pid": "P1", "price": 90.0}]),
    "DELETE": DeleteStatement(
        "vendor", where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P1",
    ),
}


@functools.cache
def _product_vendor(event: str) -> Scenario:
    """One scenario per event, so its cases translate once per mode."""
    return Scenario(
        build_paper_database, [catalog_view()], [_trigger("catalog", "product/vendor", event)]
    )


@_ENGINES
@MODES
@pytest.mark.parametrize("event", list(_CATALOG_STATEMENTS))
def test_product_vendor_fires_like_the_oracle(event, mode, engine):
    service, expected = _run(
        _product_vendor(event), [_CATALOG_STATEMENTS[event]], mode, engine
    )
    assert expected, "the differential is vacuous if the oracle fires nothing"
    _assert_compensation_gated(service)


# ---------------------------------------------------------------------------
# The hierarchy view, depths 2-4
# ---------------------------------------------------------------------------

#: Ten top elements, two leaves under every lowest parent: deleting or moving
#: one leaf takes its parent below the view's ``count >= 2`` predicate.
_TOPS = 10


def _workload(depth: int) -> HierarchyWorkload:
    fanout = 2 ** (depth - 1)
    return HierarchyWorkload(
        WorkloadParameters(
            depth=depth, leaf_tuples=_TOPS * fanout, fanout=fanout,
            num_triggers=1, satisfied_triggers=1, seed=3,
        )
    )


@functools.cache
def _hierarchy(depth: int, level: int, foreign_keys: bool = True) -> Scenario:
    """One trigger per XML event on ``level`` of the depth-``depth`` view;
    one scenario per level, so its cases translate once per mode."""
    workload = _workload(depth)

    def build_database():
        database = workload.build_database()
        database.enforce_foreign_keys = foreign_keys
        return database

    path = "/".join(workload.level_element(i) for i in range(level + 1))
    return Scenario(
        build_database, [workload.build_view()],
        [_trigger("hierarchy", path, event) for event in _ACTIONS],
    )


def _hierarchy_statements(workload: HierarchyWorkload) -> list:
    """One statement per kind of change, each in its own top element's
    subtree (ancestry is arithmetic: rows are assigned round-robin)."""
    depth = workload.depth
    counts = workload.nodes_per_level()
    leaf, lowest = depth - 1, depth - 2

    def first(level: int, top: int) -> int:
        return next(
            row for row in range(1, counts[level] + 1)
            if workload.top_ancestor(level, row) == top
        )

    statements = [
        UpdateStatement("leaf", {"price": 999.5}, keys=[(first(leaf, 1),)]),
        DeleteStatement("leaf", keys=[(first(leaf, 2),)]),
        InsertStatement("leaf", [{
            "id": counts[leaf] + 1, "parent_id": first(lowest, 3),
            "price": 1.5, "code": "new",
        }]),
        # Back above the predicate: the parent emptied above reappears.
        InsertStatement("leaf", [{
            "id": counts[leaf] + 2, "parent_id": first(lowest, 2),
            "price": 2.5, "code": "back",
        }]),
        UpdateStatement("leaf", {"parent_id": first(lowest, 5)}, keys=[(first(leaf, 4),)]),
        UpdateStatement("top", {"name": "renamed"}, keys=[(6,)]),
        # A top element without children is not in the view.
        InsertStatement("top", [{"id": _TOPS + 1, "name": "fresh", "mfr": "m"}]),
    ]
    if depth > 2:
        statements.append(
            UpdateStatement(workload.level_table(1), {"name": "renamed"}, keys=[(first(1, 7),)])
        )
    # A whole subtree leaves the view at every level and comes back.
    columns = workload.build_database().schema("leaf").column_names
    subtree = [
        dict(zip(columns, row)) for row in workload.build_database().table("leaf")
        if workload.top_ancestor(leaf, row[0]) == 8
    ]
    statements.append(DeleteStatement("leaf", keys=[(row["id"],) for row in subtree]))
    statements.append(InsertStatement("leaf", subtree))
    return statements


def _levels():
    for depth in (2, 3, 4):
        for level in range(depth):
            yield pytest.param(depth, level, id=f"depth{depth}-level{level}")


@_ENGINES
@MODES
@pytest.mark.parametrize("depth, level", list(_levels()))
def test_hierarchy_level_fires_like_the_oracle(depth, level, mode, engine):
    service, expected = _run(
        _hierarchy(depth, level), _hierarchy_statements(_workload(depth)), mode, engine
    )
    assert {record[0] for record in expected} == set(_ACTIONS), (
        "every XML event must fire at least once on every level"
    )
    _assert_compensation_gated(service)


def _outside_cases():
    for depth, level in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 2)):
        for mode in ExecutionMode:
            marks = ()
            if level == 0 and mode is ExecutionMode.GROUPED_AGG:
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="a keys-only OLD_NODE cannot show that the node did not change",
                )
            yield pytest.param(
                depth, level, mode, marks=marks, id=f"depth{depth}-level{level}-{mode.value}"
            )


@pytest.mark.parametrize("depth, level, mode", list(_outside_cases()))
def test_update_of_a_column_outside_the_view_fires_nothing(depth, level, mode):
    """``top.mfr`` is in no element: changing it changes no node.

    The pruned transition tables keep the row (a value changed), so the top
    element's key is affected and only the ``OLD_NODE ≠ NEW_NODE`` check
    drops it.  ``/topelem`` under GROUPED-AGG takes the compensated,
    keys-only OLD_NODE side there (its affected-key graphs cross no join
    twice), so the check compares an attributes-only element with the full
    new one and fires.
    """
    _, expected = _run(
        _hierarchy(depth, level), [UpdateStatement("top", {"mfr": "other"}, keys=[(3,)])],
        mode, COMPILED,
    )
    assert expected == []


def _nested_levels():
    for depth in (2, 3, 4):
        for level in range(1, depth):
            yield pytest.param(depth, level, id=f"depth{depth}-level{level}")


@_ENGINES
@MODES
@pytest.mark.parametrize("depth, level", list(_nested_levels()))
def test_top_element_deleted_under_its_children_and_inserted_again(depth, level, mode, engine):
    """Without foreign keys a top row can leave with its subtree still in
    the tables: every nested element under it leaves the view, and comes
    back when the row is inserted again.

    The affected keys of ``top`` on a nested path reach no join through
    several legs, so GROUPED-AGG serves these statements with the
    compensated OLD_NODE side.
    """
    scenario = _hierarchy(depth, level, foreign_keys=False)
    top = scenario.database().table("top")
    row = next(dict(zip(top.schema.column_names, values)) for values in top if values[0] == 4)
    service, expected = _run(
        scenario, [DeleteStatement("top", keys=[(4,)]), InsertStatement("top", [row])],
        mode, engine,
    )
    assert {record[0] for record in expected} == {"DELETE", "INSERT"}
    if mode is ExecutionMode.GROUPED_AGG:
        assert all(
            _translation(service, trigger, "top").uses_compensation
            for trigger in ("DELETE", "INSERT")
        )
    _assert_compensation_gated(service)
