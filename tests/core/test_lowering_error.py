"""A plan the compiled engine cannot lower fails ``CREATE TRIGGER`` cleanly.

Every translation runs on the compiled row engine: there is no interpreter
fallback for a graph the lowering rejects.  The error surfaces as a
:class:`~repro.errors.TriggerCompilationError` from ``create_trigger``,
raised before any SQL trigger is registered, and leaves the service, the
database and the plan cache as they were.
"""

from __future__ import annotations

import pytest

from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.errors import EvaluationError, TriggerCompilationError
from repro.relational.dml import UpdateStatement
from repro.xmlmodel import serialize
from repro.xqgm.operators import GroupByOp
from repro.xqgm.physical import PlanCompiler
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

TRIGGER = (
    "CREATE TRIGGER Watch AFTER UPDATE ON view('catalog')/product "
    "WHERE NEW_NODE/@name = 'CRT 15' DO sink(NEW_NODE)"
)

PRICE_UPDATE = UpdateStatement(
    "vendor", {"price": 75.0},
    where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
)


def build(plan_cache: PlanCache | None = None, use_compiled_plans: bool = True):
    service = ActiveViewService(
        build_paper_database(),
        ExecutionMode.GROUPED_AGG,
        plan_cache=plan_cache,
        use_compiled_plans=use_compiled_plans,
    )
    service.register_view(catalog_view())
    service.register_action("sink", lambda node: None)
    return service


def fired(service: ActiveViewService) -> list[tuple]:
    return [
        (f.trigger, f.event, f.key, serialize(f.old_node), serialize(f.new_node))
        for f in service.fired
    ]


def test_lowering_error_fails_create_trigger_and_leaves_nothing(monkeypatch):
    plan_cache = PlanCache()
    service = build(plan_cache)
    sql_triggers = [trigger.name for trigger in service.database.triggers()]

    build_node = PlanCompiler._build

    def refuse_group_by(self, op, children):
        if isinstance(op, GroupByOp):
            raise EvaluationError(f"cannot compile operator {op.kind}")
        return build_node(self, op, children)

    monkeypatch.setattr(PlanCompiler, "_build", refuse_group_by)
    with pytest.raises(TriggerCompilationError, match="cannot compile operator"):
        service.create_trigger(TRIGGER)

    assert service.triggers == []
    assert service.group_count() == 0
    assert [trigger.name for trigger in service.database.triggers()] == sql_triggers
    assert len(plan_cache) == 0

    monkeypatch.undo()
    service.create_trigger(TRIGGER)
    assert len(plan_cache) == 1
    oracle = build(use_compiled_plans=False)
    oracle.create_trigger(TRIGGER)
    for twin in (service, oracle):
        twin.execute(PRICE_UPDATE)
    assert fired(service) == fired(oracle)
    assert [f.trigger for f in service.fired] == ["Watch"]
