"""ActiveViewService.drop_view: cascade, plan-cache and group invalidation."""

from __future__ import annotations

import pytest

from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.errors import TriggerError
from repro.relational.dml import UpdateStatement
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

WATCH = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
)


def build_service():
    service = ActiveViewService(build_paper_database(), mode=ExecutionMode.GROUPED_AGG)
    service.register_view(catalog_view())
    service.register_action("notify", lambda node: None)
    return service


def test_drop_view_cascades_triggers_and_sql_triggers():
    service = build_service()
    service.create_trigger(WATCH)
    assert service.group_count() == 1
    assert service.database.triggers()  # SQL triggers installed
    service.drop_view("catalog")
    assert service.views == []
    assert service.triggers == []
    assert service.group_count() == 0
    assert service.database.triggers() == []  # SQL triggers uninstalled
    # Updates no longer activate anything.
    service.database.execute(
        UpdateStatement("vendor", {"price": 1.0}, keys=[("Amazon", "P1")])
    )
    assert service.fired == []


def test_drop_view_unknown_raises():
    service = build_service()
    with pytest.raises(TriggerError):
        service.drop_view("nope")


def test_drop_view_invalidates_plan_cache():
    cache = PlanCache()
    service = ActiveViewService(
        build_paper_database(), mode=ExecutionMode.GROUPED_AGG, plan_cache=cache
    )
    service.register_view(catalog_view())
    service.register_action("notify", lambda node: None)
    service.create_trigger(WATCH)
    assert len(cache) == 1
    service.drop_view("catalog")
    assert len(cache) == 0
    # Re-registering and re-creating recompiles from scratch (a cache miss).
    service.register_view(catalog_view())
    service.create_trigger(WATCH)
    assert service.plan_cache_misses == 2
    assert [trigger.name for trigger in service.triggers] == ["W"]


def test_drop_view_keeps_other_views_plans():
    cache = PlanCache()
    cache._plans[("other", ("x",), "UPDATE", ())] = {}
    assert cache.invalidate_view("catalog") == 0
    assert len(cache) == 1
