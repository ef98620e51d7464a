"""Regression: the DML hot path never re-parses trigger text.

The seed implementation re-extracted a trigger's condition constants (a
full XPath parse via ``split_constants``) and re-compiled uncached
condition text *per event* inside the firing loop.  PR 6 hoists all of it
to registration time: :meth:`TriggerSpec.condition_analysis` /
:meth:`TriggerSpec.argument_analyses` parse once and cache the
parameterized AST, the constants, and the structural shape together, and
``compiled_condition`` memoizes its ``XPath``.

These tests pin the invariant mechanically: after registration, a stream
of firing statements performs **zero** XPath parses — in the translated
service (every mode) and in the MATERIALIZED baseline.

The same counter-based style pins the other per-statement invariant of the
hot path: a statement fired against N sibling trigger groups runs the plan
engine **once**, not N times (the groups read the statement's evaluation
memo), and sibling XML events add one thin combine each — never a second
evaluation of a shared OLD/NEW node side.
"""

from __future__ import annotations

import pytest

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import UpdateStatement
from repro.xmlmodel import xpath as xpath_module
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

TRIGGERS = [
    "CREATE TRIGGER Crt AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE)",
    "CREATE TRIGGER Lcd AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'LCD 19' DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Cheap AFTER UPDATE ON view('catalog')/product "
    "WHERE NEW_NODE/vendor/price >= 10 and NEW_NODE/vendor/price < 300 "
    "DO sink(NEW_NODE)",
    "CREATE TRIGGER Any AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)",
]


@pytest.fixture
def count_parses(monkeypatch):
    """Patch ``parse_xpath`` with a counting wrapper; returns the counter."""
    counter = {"calls": 0}
    original = xpath_module.parse_xpath

    def counting_parse(text):
        counter["calls"] += 1
        return original(text)

    monkeypatch.setattr(xpath_module, "parse_xpath", counting_parse)
    return counter


def _statements():
    return [
        UpdateStatement(
            "vendor", {"price": 90.0 + step},
            where=lambda r, step=step: r["pid"] == ("P1", "P2", "P3")[step % 3],
        )
        for step in range(6)
    ]


@pytest.mark.parametrize(
    "mode", [ExecutionMode.UNGROUPED, ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG]
)
@pytest.mark.parametrize("use_matching_indexes", [True, False])
def test_service_statement_stream_never_parses(count_parses, mode, use_matching_indexes):
    database = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(
        database, mode=mode, use_matching_indexes=use_matching_indexes
    )
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    for text in TRIGGERS:
        service.create_trigger(text)

    count_parses["calls"] = 0  # registration parses are expected and fine
    for statement in _statements():
        service.execute(statement)
    assert service.fired, "the invariant is vacuous if nothing fired"
    assert count_parses["calls"] == 0, (
        f"{count_parses['calls']} XPath parses on the DML hot path"
    )


def test_bulk_registration_statement_stream_never_parses(count_parses):
    database = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(database, ExecutionMode.GROUPED_AGG)
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    service.register_triggers_bulk(TRIGGERS)

    count_parses["calls"] = 0
    for statement in _statements():
        service.execute(statement)
    assert service.fired
    assert count_parses["calls"] == 0


def test_baseline_statement_stream_never_parses(count_parses):
    database = build_paper_database(with_foreign_keys=False)
    baseline = MaterializedBaseline(database)
    baseline.register_view(catalog_view())
    baseline.register_action("sink", lambda *args: None)
    for text in TRIGGERS:
        baseline.create_trigger(parse_trigger(text))

    count_parses["calls"] = 0
    for statement in _statements():
        baseline.execute(statement)
    assert baseline.fired
    assert count_parses["calls"] == 0


def test_analysis_is_cached_per_spec(count_parses):
    """Each compiled piece parses at most once, ever, per spec."""
    spec = parse_trigger(TRIGGERS[0])
    count_parses["calls"] = 0
    # Touch every accessor once: parses happen here (once per expression).
    analysis = spec.condition_analysis()
    spec.structural_signature()
    spec.condition_constants()
    spec.compiled_condition()
    spec.compiled_args()
    warmup = count_parses["calls"]
    assert warmup > 0
    # Every further access — the per-event pattern of the firing loops —
    # is served from the caches.
    assert analysis is spec.condition_analysis()
    spec.structural_signature()
    spec.condition_constants()
    spec.compiled_condition()
    spec.compiled_args()
    assert count_parses["calls"] == warmup, (
        "trigger accessors re-parsed despite the per-spec caches"
    )


def _sibling_groups(count: int) -> list[str]:
    """``count`` UNGROUPED triggers: one group each, all on one translation."""
    return [
        f"CREATE TRIGGER Sib{index} AFTER UPDATE ON view('catalog')/product "
        f"WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE)"
        for index in range(count)
    ]


@pytest.mark.parametrize("siblings", [1, 2, 7])
def test_sibling_groups_execute_the_shared_plan_once_per_statement(monkeypatch, siblings):
    from repro.xqgm.physical import PhysicalOp, PhysicalPlan

    counter = {"executes": 0, "side_computes": 0}
    original_execute = PhysicalPlan.execute

    def counting_execute(self, context):
        counter["executes"] += 1
        before = context.shared_side_evaluations
        rows = original_execute(self, context)
        counter["side_computes"] += context.shared_side_evaluations - before
        return rows

    monkeypatch.setattr(PhysicalPlan, "execute", counting_execute)

    database = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(database, mode=ExecutionMode.UNGROUPED)
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    for text in _sibling_groups(siblings):
        service.create_trigger(text)
    assert service.group_count() == siblings
    translations = {
        id(compiled.translations["vendor"]) for compiled in service._groups.values()
    }
    assert len(translations) == 1
    (compiled, *_) = service._groups.values()
    sides = compiled.translations["vendor"].sides
    assert all(
        isinstance(node, PhysicalOp) and node.shared
        for node in map(sides._compilers[0].compile, sides.shared_operators)
    )

    for statement in _statements():
        counter["executes"] = counter["side_computes"] = 0
        service.execute(statement)
        assert counter["executes"] == 1, (
            f"{counter['executes']} plan executions for {siblings} sibling groups"
        )
        assert counter["side_computes"] == len(sides.shared_operators) == 3
    assert len(service.fired) % siblings == 0 and service.fired
    report = service.evaluation_report()
    assert report["pairs_memo_hits"] == (siblings - 1) * len(_statements())


def test_sibling_events_add_a_combine_not_a_side_evaluation(monkeypatch):
    from repro.xqgm.physical import PhysicalPlan

    counter = {"executes": 0}
    original_execute = PhysicalPlan.execute

    def counting_execute(self, context):
        counter["executes"] += 1
        return original_execute(self, context)

    monkeypatch.setattr(PhysicalPlan, "execute", counting_execute)

    database = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(database, mode=ExecutionMode.UNGROUPED)
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    for text in _sibling_groups(3) + [
        "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE)",
        "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE)",
    ]:
        service.create_trigger(text)

    for statement in _statements():
        before = service.evaluation_report()
        counter["executes"] = 0
        service.execute(statement)
        after = service.evaluation_report()
        # One execution per event translation (UPDATE, INSERT, DELETE) ...
        assert counter["executes"] == 3
        # ... over sides that were each computed exactly once.
        assert after["shared_side_evaluations"] - before["shared_side_evaluations"] == 3
        assert after["shared_side_reuses"] - before["shared_side_reuses"] == 4
