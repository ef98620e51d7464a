"""The statement-scoped evaluation memo and the shared OLD/NEW node sides.

Translation builds the event-independent half of a monitored path once
(:class:`repro.core.pushdown.SharedSides`, cached in the ``PlanCache``) and
every trigger group / XML event combines those very operators; at run time
the compiled plans keep each side's rows and each translation's pairs in
``TriggerContext.evaluation_memo``.  Pinned here:

* the memo's lifetime — empty on a fresh context, one per statement, never
  visible to the next statement or to another shard thread firing the same
  (shared) translations concurrently;
* DML issued by a trigger action while its statement's other groups are
  still to fire: they recompute what read the changed tables, like the
  interpreter (memo keys carry table version stamps);
* ``drop_view`` + re-registering a *changed* view never serves a stale side,
  and an old-side variant first needed long after the other plans were
  lowered still lowers and agrees with the interpreter;
* trigger DDL that makes a group disappear and reappear keeps the sharing.

The randomized cross-engine pin is
``tests/property/test_property_statement_sharing.py``.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.relational import Column, DataType, TableSchema, TriggerEvent
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.relational.table import TransitionTable
from repro.relational.triggers import StatementTrigger, TriggerContext
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

#: Four UPDATE groups (none / shallow twice / full old node), one INSERT, one
#: DELETE — in GROUPED-AGG the compensated and the full old side coexist, and
#: the none group and the two shallow groups are sibling groups of one
#: translation (only "FULL or not" reaches a plan).
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


def test_memo_is_per_statement_and_holds_the_sides_and_pairs():
    database, service = build_service()
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
    for memo in seen:
        nodes = {sides._compiler.compile(op) for op in sides.shared_operators}
        plans = {
            c.translations["vendor"].physical_plan for c in service._groups.values()
        }
        # Each side once, each distinct translation's pairs once — nothing
        # else — each keyed with the version stamps of the tables it reads.
        assert {key for key, _ in memo} == nodes | plans
        assert len(memo) == len(nodes | plans)
    assert all(
        stamp == tuple(database.table(name).version_stamp for name in key.table_deps)
        for key, stamp in second
    )
    # Nothing of statement 1 is visible to statement 2: the plans are the
    # same objects, the stamps (hence the keys) and the values are not.
    assert not set(first) & set(second)
    assert not {id(value) for value in first.values()} & {id(value) for value in second.values()}
    # Six groups on four translations (UPDATE none-or-shallow / full, INSERT,
    # DELETE) over four sides (keys, new, compensated old, full old).
    assert len(plans) == 4 and len(sides.shared_operators) == 4


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
    # Six groups, four distinct translations: UpdNew, UpdOld and UpdNot share one.
    assert after["pairs_memo_hits"] - before["pairs_memo_hits"] == 2
    assert after["shared_side_reuses"] > before["shared_side_reuses"]


def test_none_and_shallow_old_node_groups_share_one_translation():
    """A group that never reads OLD_NODE and one that reads only its key
    attributes translate alike (``pushdown`` only asks "FULL or not"): the
    second is a plan-cache hit on the very translation of the first, and a
    statement hands it the first's pairs instead of executing a plan."""
    _, service = build_service(triggers=TRIGGERS[:2])  # UpdNew (none), UpdOld (shallow)
    assert service.group_count() == 2
    assert (service.plan_cache_hits, service.plan_cache_misses) == (1, 1)
    first, second = (c.translations["vendor"] for c in service._groups.values())
    assert first is second and first.uses_compensation
    service.execute(price_update(1))
    assert {f.trigger for f in service.fired} == {"UpdNew", "UpdOld"}
    assert sharing(service)["pairs_memo_hits"] == 1


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
        assert counters["pairs_memo_hits"] == statements * 2


# ------------------------------------------------------- DML issued by an action


NESTING = [
    "CREATE TRIGGER Nest AFTER UPDATE ON view('catalog')/product DO nest(NEW_NODE/@name)",
    "CREATE TRIGGER UpdNew AFTER UPDATE ON view('catalog')/product "
    "WHERE NEW_NODE/@name = 'CRT 15' DO sink(NEW_NODE)",
    "CREATE TRIGGER UpdOld AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE/vendor)",
    "CREATE TRIGGER UpdFull AFTER UPDATE ON view('catalog')/product "
    "WHERE count(OLD_NODE/vendor) >= 2 DO sink(OLD_NODE/vendor)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/vendor)",
]


def build_nesting_service(mode, nested, **options):
    """``Nest`` fires first and (at the outer level only) executes
    ``nested(database)`` while the statement's other groups are still to fire."""
    database = build_paper_database(with_foreign_keys=False)
    database.create_table(TableSchema(
        "audit", [Column("id", DataType.INTEGER, nullable=False)], primary_key=["id"],
    ))
    service = ActiveViewService(database, mode=mode, **options)
    service.register_view(catalog_view())
    service.register_action("sink", lambda *args: None)
    depth = []

    def nest(*args):
        if depth:
            return
        depth.append(1)
        try:
            for statement in nested(database):
                service.execute(statement)
        finally:
            depth.pop()

    service.register_action("nest", nest)
    for text in NESTING:
        service.create_trigger(text)
    return database, service


_NESTED_DML = {
    # Another vendor row of the updated product: every later group's
    # NEW_NODE (and full OLD_NODE) must show 999.0.
    "update": lambda db: [UpdateStatement("vendor", {"price": 999.0}, keys=[("Bestbuy", "P1")])],
    # LCD 19 drops out of the view under the outer statement's feet.
    "delete": lambda db: [DeleteStatement("vendor", keys=[("Buy.com", "P2")])],
    # ... and a vendor (a different one per outer statement) joins CRT 15.
    "insert": lambda db: [InsertStatement(
        "vendor", [{"vid": f"Shop{len(db.table('vendor'))}", "pid": "P3", "price": 7.0}]
    )],
}


@pytest.mark.parametrize("nested", sorted(_NESTED_DML))
@pytest.mark.parametrize("mode", [ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG])
def test_groups_fired_after_an_actions_own_dml_see_it_like_the_interpreter(mode, nested):
    """An action that modifies a table the view reads: the sibling groups the
    outer statement has yet to fire must not be served the sides and pairs
    memoised before that DML — the interpreter, which recomputes per group,
    is the reference."""
    outer = [
        UpdateStatement("vendor", {"price": 5.0}, keys=[("Amazon", "P1")]),
        UpdateStatement("vendor", {"price": 6.0}, keys=[("Bestbuy", "P2")]),
    ]
    fired = {}
    for engine, options in (
        ("interpreted", {"use_compiled_plans": False}),
        ("compiled", {}),
    ):
        database, service = build_nesting_service(mode, _NESTED_DML[nested], **options)
        for statement in outer:
            service.execute(statement)
        fired[engine] = [
            (f.trigger, f.event.value, f.key,
             None if f.old_node is None else serialize(f.old_node),
             None if f.new_node is None else serialize(f.new_node))
            for f in service.fired
        ]
        assert service.evaluation_report()["compiled_plan_fallbacks"] == 0
    assert len(fired["interpreted"]) > len(NESTING) - 1  # the nested statement fired too
    assert fired["compiled"] == fired["interpreted"]


def test_action_dml_on_an_unrelated_table_keeps_the_sharing():
    """The common shape of a writing action — an audit row per activation —
    touches nothing the view reads, so the statement still evaluates each
    side once."""
    counter = iter(range(1, 100))
    log = lambda db: [InsertStatement("audit", [{"id": next(counter)}])]
    database, service = build_nesting_service(ExecutionMode.GROUPED_AGG, log)
    (sides,) = sides_of(service)
    before = sharing(service)
    service.execute(price_update(1))
    after = sharing(service)
    assert len(database.table("audit")) == 1
    assert after["shared_side_evaluations"] - before["shared_side_evaluations"] == len(
        sides.shared_operators
    )
    assert after["shared_side_reuses"] > before["shared_side_reuses"]


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


def test_cached_sides_keep_no_database_alive():
    """A shared PlanCache outlives the shard service that built an entry; the
    sides' compilers keep schemas, not that service's database."""
    cache = PlanCache()
    database, service = build_service(plan_cache=cache)
    alive = weakref.ref(database)
    del database, service
    gc.collect()
    assert alive() is None
    assert len(cache) > 0 and cache._sides


@pytest.mark.parametrize("mode", [ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG])
def test_old_side_variant_added_after_every_tables_sides_were_lowered(mode):
    """The full OLD_NODE side is built — and lowered by the sides' long-lived
    compiler — only when the first group that needs it registers.  By then
    the sides of *both* base tables exist (building the second widens the
    shared view graph in place) and their other plans were lowered long ago;
    the late variant must still lower and agree with the interpreter."""
    early = [TRIGGERS[0], TRIGGERS[1], TRIGGERS[4]]  # no / shallow old node
    late = [TRIGGERS[3], TRIGGERS[5]]  # full old node: UPDATE and DELETE
    statements = [
        price_update(1),
        UpdateStatement("product", {"pname": "CRT 17"}, keys=[("P1",)]),
        DeleteStatement("vendor", keys=[("Buy.com", "P2")]),  # LCD 19 leaves the view
        InsertStatement("vendor", [{"vid": "Buy.com", "pid": "P2", "price": 2.0}]),
        DeleteStatement("product", keys=[("P3",)]),
    ]
    fired = {}
    for engine, options in (
        ("interpreted", {"use_compiled_plans": False}),
        ("compiled", {}),
    ):
        database = build_paper_database(with_foreign_keys=False)
        service = ActiveViewService(database, mode=mode, **options)
        service.register_view(catalog_view())
        service.register_action("sink", lambda *args: None)
        for text in early:
            service.create_trigger(text)
        service.execute(price_update(0))  # every early plan has run
        variants = {
            table: len(sides.shared_operators)
            for table in ("product", "vendor") for sides in sides_of(service, table)
        }
        for text in late:
            service.create_trigger(text)
        if mode is ExecutionMode.GROUPED_AGG:
            # The compensated side was there; the full one joined it.
            assert all(
                len(sides.shared_operators) == variants[table] + 1
                for table in ("product", "vendor") for sides in sides_of(service, table)
            )
        for statement in statements:
            service.execute(statement)
        report = service.evaluation_report()
        assert report["compiled_plan_fallbacks"] == 0, report
        fired[engine] = normalize(service.fired)
    assert {f[0] for f in fired["interpreted"]} >= {"UpdFull", "Del"}
    assert fired["compiled"] == fired["interpreted"]


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
