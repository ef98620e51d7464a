"""The statement-scoped evaluation memo and the shared OLD/NEW node sides.

Translation builds the event-independent half of a monitored path once
(:class:`repro.core.pushdown.SharedSides`, cached in the ``PlanCache``) and
every trigger group / XML event combines those very operators; at run time
the plan engines keep each side's rows and each translation's pairs in
``TriggerContext.evaluation_memo``.  Pinned here:

* the memo's lifetime — empty on a fresh context, one per statement, never
  visible to the next statement or to another shard thread firing the same
  (shared) translations concurrently;
* ``drop_view`` + re-registering a *changed* view never serves a stale side;
* trigger DDL that makes a group disappear and reappear keeps the sharing.

The randomized cross-engine pin is
``tests/property/test_property_statement_sharing.py``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.relational import TriggerEvent
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.relational.table import TransitionTable
from repro.relational.triggers import StatementTrigger, TriggerContext
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

#: Four UPDATE groups (none / shallow twice / full old node), one INSERT, one
#: DELETE — in GROUPED-AGG the compensated and the full old side coexist, and
#: the two shallow groups are sibling groups of one translation.
TRIGGERS = [
    "CREATE TRIGGER UpdNew AFTER UPDATE ON view('catalog')/product "
    "WHERE NEW_NODE/@name = 'CRT 15' DO sink(NEW_NODE)",
    "CREATE TRIGGER UpdOld AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER UpdNot AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name != 'LCD 19' DO sink(OLD_NODE/@name)",
    "CREATE TRIGGER UpdFull AFTER UPDATE ON view('catalog')/product "
    "WHERE count(OLD_NODE/vendor) >= 2 DO sink(OLD_NODE/vendor)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/vendor)",
]


def build_service(*, view=None, plan_cache=None, triggers=TRIGGERS, **options):
    database = build_paper_database(with_foreign_keys=False)
    service = ActiveViewService(
        database, mode=ExecutionMode.GROUPED_AGG, plan_cache=plan_cache, **options
    )
    service.register_view(view or catalog_view())
    service.register_action("sink", lambda *args: None)
    for text in triggers:
        service.create_trigger(text)
    return database, service


def price_update(step: int, pid: str = "P1") -> UpdateStatement:
    return UpdateStatement("vendor", {"price": 300.0 + step}, keys=[("Amazon", pid)])


def normalize(fired):
    text = lambda node: None if node is None else serialize(node)
    return sorted(
        (f.trigger, f.event.value, f.key, text(f.old_node), text(f.new_node)) for f in fired
    )


def sides_of(service, table="vendor"):
    """The distinct SharedSides objects behind the installed translations."""
    found = {}
    for compiled in service._groups.values():
        sides = compiled.translations[table].sides
        found[id(sides)] = sides
    return list(found.values())


def sharing(service) -> dict[str, int]:
    report = service.evaluation_report()
    return {
        key: report[key]
        for key in ("shared_side_evaluations", "shared_side_reuses", "pairs_memo_hits")
    }


# ----------------------------------------------------------------- memo lifetime


def test_fresh_trigger_context_has_an_empty_memo_of_its_own():
    database = build_paper_database()
    schema = database.schema("vendor")

    def context():
        return TriggerContext(
            database, "vendor", TriggerEvent.UPDATE,
            TransitionTable(schema, []), TransitionTable(schema, []),
        )

    first, second = context(), context()
    assert first.evaluation_memo == {} and second.evaluation_memo == {}
    assert first.evaluation_memo is not second.evaluation_memo


@pytest.mark.parametrize("use_columnar", [False, True])
def test_memo_is_per_statement_and_holds_the_sides_and_pairs(use_columnar):
    database, service = build_service(use_columnar=use_columnar)
    (sides,) = sides_of(service)
    seen = []
    # Registered last, so it fires after every trigger group of the service,
    # with the very context they fired with.
    database.register_trigger(StatementTrigger(
        name="probe", table="vendor", events=frozenset(TriggerEvent),
        body=lambda context: seen.append(context.evaluation_memo),
    ))

    service.execute(price_update(1))
    service.execute(price_update(2))
    first, second = seen
    assert first is not second
    engine = 1 if use_columnar else 0
    for memo in seen:
        nodes = {sides._compilers[engine].compile(op) for op in sides.shared_operators}
        plans = {
            (t.columnar_plan if use_columnar else t.physical_plan)
            for t in (c.translations["vendor"] for c in service._groups.values())
        }
        # Each side once, each distinct translation's pairs once — nothing else.
        assert set(memo) == nodes | plans
    # Nothing of statement 1 is visible to statement 2: same keys (the plans
    # are the same objects), different values.
    assert all(first[key] is not second[key] for key in first)
    # Six groups on five translations (UPDATE none / shallow / full, INSERT,
    # DELETE) over four sides (keys, new, compensated old, full old).
    assert len(plans) == 5 and len(sides.shared_operators) == 4


def test_interpreter_leaves_the_memo_alone():
    database, service = build_service(use_compiled_plans=False)
    seen = []
    database.register_trigger(StatementTrigger(
        name="probe", table="vendor", events=frozenset(TriggerEvent),
        body=lambda context: seen.append(dict(context.evaluation_memo)),
    ))
    service.execute(price_update(1))
    assert service.fired and seen == [{}]
    assert sharing(service) == {
        "shared_side_evaluations": 0, "shared_side_reuses": 0, "pairs_memo_hits": 0,
    }


def test_each_side_is_evaluated_once_per_statement():
    _, service = build_service()
    (sides,) = sides_of(service)
    before = sharing(service)
    service.execute(price_update(1))
    after = sharing(service)
    assert after["shared_side_evaluations"] - before["shared_side_evaluations"] == len(
        sides.shared_operators
    )
    # Six groups, five distinct translations: UpdOld and UpdNot share one.
    assert after["pairs_memo_hits"] - before["pairs_memo_hits"] == 1
    assert after["shared_side_reuses"] > before["shared_side_reuses"]


def test_concurrent_shard_threads_never_see_each_others_memo():
    """Four services on four databases fire the *same* translation objects
    (one PlanCache) from four threads.  Every statement's activations must be
    computed from its own service's rows: each thread writes prices only it
    uses, so a side or pairs list leaking between threads (as anything kept
    on the shared translation would) shows up as a foreign price."""
    cache = PlanCache()
    workers = 4  # more than the box's cores
    statements = 60
    built = [build_service(plan_cache=cache) for _ in range(workers)]
    first = built[0][1]
    for _, service in built[1:]:
        for signature, compiled in first._groups.items():
            twin = service._groups[signature]
            assert twin.translations["vendor"] is compiled.translations["vendor"]

    def stream(worker: int):
        for step in range(statements):
            pid = ("P1", "P2", "P3")[step % 3]
            vid = "Bestbuy"  # sells all three products
            yield UpdateStatement(
                "vendor", {"price": 1000.0 * (worker + 1) + step}, keys=[(vid, pid)]
            )

    errors: list[BaseException] = []
    barrier = threading.Barrier(workers)

    def run(worker: int) -> None:
        try:
            barrier.wait(timeout=30)
            service = built[worker][1]
            for statement in stream(worker):
                service.execute(statement)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(worker,)) for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors

    for worker, (_, service) in enumerate(built):
        _, oracle = build_service(use_compiled_plans=False)
        for statement in stream(worker):
            oracle.execute(statement)
        assert normalize(service.fired) == normalize(oracle.fired), f"worker {worker}"
        counters = sharing(service)
        assert counters["shared_side_evaluations"] == statements * 4
        assert counters["pairs_memo_hits"] == statements


# ------------------------------------------------------------------- invalidation


def test_drop_view_then_changed_view_never_serves_a_stale_side():
    """Two services share one PlanCache; the view is dropped and re-registered
    with a different predicate.  Every translation must combine freshly built
    sides — and fire like an oracle that only ever knew the changed view."""
    cache = PlanCache()
    _, service = build_service(plan_cache=cache)
    _, sibling = build_service(plan_cache=cache)
    (stale,) = sides_of(service)
    assert sides_of(sibling) == [stale]
    for target in (service, sibling):
        target.execute(price_update(1))

    changed = lambda: catalog_view(min_vendors=3)
    for target in (service, sibling):
        target.drop_view("catalog")
    assert len(cache) == 0 and cache._sides == {}
    for target in (service, sibling):
        target.register_view(changed())
        for text in TRIGGERS:
            target.create_trigger(text)
    (fresh,) = sides_of(service)
    assert fresh is not stale and sides_of(sibling) == [fresh]
    assert all(
        new is not old for new in fresh.shared_operators for old in stale.shared_operators
    )

    _, oracle = build_service(view=changed(), use_compiled_plans=False)
    oracle.execute(price_update(1))  # same data as the two services
    for target in (service, sibling, oracle):
        target.clear_logs()
    # LCD 19 has two vendors: a third inserts it into the changed view (it
    # would merely update in the original), losing it again deletes it.
    statements = [
        price_update(2),
        InsertStatement("vendor", [{"vid": "Amazon", "pid": "P2", "price": 9.0}]),
        DeleteStatement("vendor", keys=[("Amazon", "P2")]),
    ]
    for statement in statements:
        for target in (service, sibling, oracle):
            target.execute(statement)
    assert {f.event for f in oracle.fired} == set(TriggerEvent)
    assert normalize(service.fired) == normalize(oracle.fired)
    assert normalize(sibling.fired) == normalize(oracle.fired)


def test_group_that_disappears_and_reappears_keeps_sharing():
    """The e2e workload's DDL pair: drop a trigger, create its replacement.
    When the dropped trigger was its group's only member the group (and its
    SQL triggers) go away and come back — on the same cached translation and
    the same sides, with the sharing intact at every step."""
    _, service = build_service()
    _, oracle = build_service(use_compiled_plans=False)
    (sides,) = sides_of(service)
    translation = service._groups[
        next(s for s, c in service._groups.items() if c.group.members[0].spec.name == "Ins")
    ].translations["vendor"]
    bound = len(sides.shared_operators)

    def fire(step: int) -> None:
        statements = [
            price_update(step),
            DeleteStatement("vendor", keys=[("Buy.com", "P2")]),  # LCD 19 leaves the view
            InsertStatement("vendor", [{"vid": "Buy.com", "pid": "P2", "price": 1.0 + step}]),
        ]
        for statement in statements:
            before = sharing(service)
            service.execute(statement)
            oracle.execute(statement)
            after = sharing(service)
            assert after["shared_side_evaluations"] - before["shared_side_evaluations"] <= bound
            assert after["shared_side_reuses"] > before["shared_side_reuses"]

    fire(1)
    for target in (service, oracle):
        target.drop_trigger("Ins")
    assert service.group_count() == 5
    fire(2)
    replacement = TRIGGERS[4].replace("TRIGGER Ins", "TRIGGER Ins2")
    for target in (service, oracle):
        target.create_trigger(replacement)
    assert service.group_count() == 6
    recreated = next(
        c for c in service._groups.values() if c.group.members[0].spec.name == "Ins2"
    ).translations["vendor"]
    assert recreated is translation and recreated.sides is sides
    assert len(sides.shared_operators) == bound  # no side was rebuilt
    fire(3)
    assert {f.trigger for f in service.fired} >= {"Ins", "Ins2", "Del", "UpdFull"}
    assert normalize(service.fired) == normalize(oracle.fired)
