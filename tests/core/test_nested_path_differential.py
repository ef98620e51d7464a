"""Triggers on a nested path (``view('catalog')/product/vendor``) against the oracle.

A trigger may monitor any element of the view, not only its top level
(Section 2.2).  Each case creates one trigger on the ``<vendor>`` elements
nested in ``<product>``, runs one statement that inserts, updates or deletes
such an element, per statement and through ``execute_batch``, and compares
what fired with :class:`~repro.core.baseline.MaterializedBaseline`, which
diffs the materialized path before and after the statement.

Every case fails today, in every mode, with ``column 'P.pid' not present``:
the pushed-down plan of a nested path loses the parent's key column.  The
cases are strict xfails so that a fix (or a different failure) shows at
once; the change that fixes nested paths removes the marker.
"""

from __future__ import annotations

import pytest

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.errors import EvaluationError
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

# One statement per XML event on /product/vendor; the UPDATE is the
# quickstart's (the oracle fires T for ('CRT 15', 'Amazon', 'P1')).
STATEMENTS = {
    "UPDATE": UpdateStatement(
        "vendor", {"price": 75.0},
        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
    ),
    "INSERT": InsertStatement("vendor", [{"vid": "Newegg", "pid": "P1", "price": 90.0}]),
    "DELETE": DeleteStatement(
        "vendor", where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P1",
    ),
}


def _trigger(event: str) -> str:
    return (
        f"CREATE TRIGGER T AFTER {event} ON view('catalog')/product/vendor "
        f"DO sink({'OLD_NODE' if event == 'DELETE' else 'NEW_NODE'})"
    )


@pytest.mark.xfail(
    strict=True,
    raises=EvaluationError,
    reason="nested-path triggers lose the parent's key column (column 'P.pid')",
)
@pytest.mark.parametrize("batched", [False, True], ids=["execute", "execute_batch"])
@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("event", list(STATEMENTS))
def test_nested_path_trigger_fires_like_the_oracle(event, mode, batched):
    statement = STATEMENTS[event]

    oracle = MaterializedBaseline(build_paper_database())
    oracle.register_view(catalog_view())
    oracle.register_action("sink", lambda node: None)
    oracle.create_trigger(parse_trigger(_trigger(event)))
    _, _, calls = oracle.execute(statement)
    expected = sorted((c.trigger_name, c.key) for c in calls)
    assert expected, "the differential is vacuous if the oracle fires nothing"

    service = ActiveViewService(build_paper_database(), mode)
    service.register_view(catalog_view())
    service.register_action("sink", lambda node: None)
    service.create_trigger(_trigger(event))
    if batched:
        service.execute_batch([statement])
    else:
        service.execute(statement)
    fired = sorted((f.trigger, f.key) for f in service.fired)
    assert fired == expected
    node = "old_node" if event == "DELETE" else "new_node"
    assert sorted(serialize(getattr(f, node)) for f in service.fired) == sorted(
        serialize(c.old_node if event == "DELETE" else c.new_node) for c in calls
    )
