"""One differential replay for every evaluator of the property suites.

Section 4 claims that the translated triggers fire exactly what Definitions
2–3 say.  Every suite under ``tests/property/`` checks that claim the same
way: a :class:`Scenario` (a database factory, the views and the trigger
texts) and a statement stream go through :class:`Replay`, which runs each
step on every evaluator's *own* database and asserts, step by step, that
all evaluators agree on

* the type of the relational error the step raised (``None`` when it
  succeeded; a failing statement leaves its predecessors applied, and
  fired, on every evaluator) — any other error fails the replay;
* the multiset of ``(trigger, event, key, OLD text, NEW text)`` it fired;
* the tables afterwards (sorted rows, so shards compare with one database),
  and for ``backend="sqlite"`` the mirror inside SQLite.

The evaluators:

* :data:`ORACLE` — :class:`~repro.core.baseline.MaterializedBaseline`, which
  materializes each monitored path before and after every statement;
* :data:`INTERPRETED`, :data:`COMPILED`, :data:`SQLITE` — an
  ``ActiveViewService`` per engine, one ``execute`` per statement;
* :data:`BATCH` — the compiled engine, one ``execute_batch`` per step;
* :data:`SERVER` — an ``ActiveViewServer`` over the scenario's sharded
  database, one ``execute`` per statement (each runs as its shard's
  micro-batch).

Every service evaluator also checks a counter that only its engine can
move: the compiled engine evaluates at least one shared OLD/NEW side on
each statement (batch: each net slice) that reaches a translation, and at
most the sides registered for the tables it reached; SQLite runs at least
one backend statement there; the interpreter evaluates no shared side.

**The one OLD_NODE rule.**  Where some evaluator serves a trigger on the
step's table through GROUPED-AGG's compensated OLD_NODE side
(``uses_compensation``), OLD_NODE is compared by its attributes alone on
every evaluator: that side builds the element from the keys and the
compensated aggregates, not its children.  Elsewhere the whole OLD_NODE is
compared.  There is no exception for batches.  The batch path keeps one
activation per (trigger, event, key) and batch, and two candidate pairs for
one key do occur, but only from two (table, event) slices of the batch: the
first slice's pair is kept, and the batch fixes the slice order for every
engine.  Within a slice each side offers one pair per key; a compensated
group counts the rows it had before the update and is dropped when it had
none, so a renamed element does not keep a group under its new name.
``test_property_statement_sharing.py::
test_a_batch_renaming_two_tops_into_one_name_keeps_one_old_node_per_key``
is that case.

Statements come as steps (lists).  A per-statement evaluator executes a
step's statements one by one, a batched one passes the step to
``execute_batch``; both stop at the first failing statement.  The catalog
view's one DML alphabet (:func:`catalog_actions`) and its ``keys=``
statements (:func:`catalog_steps`) also feed the wire suites.

To add a view, write its :class:`Scenario` (a database factory, and a
sharded one for :data:`SERVER`) and a statement stream; to add an
evaluator, give :class:`Engine` its service options, or write an object
whose ``open(scenario, mode, plans)`` returns a run with ``target``,
``services``, ``step``, ``tables`` and ``close``.  :func:`replay` runs a
whole stream; a :class:`Replay` used directly lets a test run DDL on
``targets`` between steps (on a scenario of its own: the DDL's translations
join the scenario's plan cache).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.errors import RelationalError
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.xmlmodel import Element, serialize
from repro.xqgm.views import catalog_view

from tests.conftest import VENDORS, build_paper_database
from tests.serving.conftest import build_sharded_paper_database

#: Examples per property: ``REPRO_PROPERTY_EXAMPLES`` (CI's stress steps
#: raise it), else 15.
EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))


def budget(examples: int = EXAMPLES) -> settings:
    """The suites' one hypothesis settings object."""
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
            HealthCheck.data_too_large,
        ],
    )


MODES = pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.value)


def tables(snapshot: dict) -> dict:
    """Table contents irrespective of row (and shard) order."""
    return {table: sorted(rows, key=repr) for table, rows in snapshot.items()}


# ---------------------------------------------------------------------------
# The catalog view (Figure 2) and its one DML alphabet
# ---------------------------------------------------------------------------

PIDS = ["P1", "P2", "P3", "P4"]
VIDS = ["Amazon", "Bestbuy", "Circuitcity", "Buy.com", "Newegg", "Walmart"]
NAMES = ["CRT 15", "LCD 19", "OLED 27"]
#: P4 has no vendor yet, so it has no <product> node yet either.
P4 = {"pid": "P4", "pname": "OLED 27", "mfr": "LG"}
INITIAL_VENDORS = frozenset((row["vid"], row["pid"]) for row in VENDORS)
CATALOG_TRIGGERS = [
    "CREATE TRIGGER UpdCrt AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO sink(NEW_NODE)",
    "CREATE TRIGGER UpdAny AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER UpdBig AFTER UPDATE ON view('catalog')/product "
    "WHERE count(NEW_NODE/vendor) >= 3 DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]
KINDS = ("insert_vendor", "update_price", "delete_vendor", "rename_product",
         "delete_product_vendors")


def catalog_actions(kinds: Sequence[str] = KINDS):
    """One DML action: ``(kind, vid, pid, value)``, ``value`` a price or a
    name index."""
    return st.tuples(
        st.sampled_from(kinds), st.sampled_from(VIDS), st.sampled_from(PIDS),
        st.integers(10, 300),
    )


def catalog_steps(actions, batch_size: int = 1) -> list[list]:
    """The statements of ``actions``, ``batch_size`` to a step.

    Every statement names its rows by ``keys=``, so one stream serves an
    in-process evaluator, a sharded server and a wire client alike.  An
    insert of a vendor row present when its step starts is skipped; two
    inserts of one new row in one step stay, and the step fails on the
    second.
    """
    present = set(INITIAL_VENDORS)
    steps = []
    for start in range(0, len(actions), batch_size):
        at_start, step = frozenset(present), []
        for kind, vid, pid, value in actions[start:start + batch_size]:
            if kind == "insert_vendor":
                if (vid, pid) in at_start:
                    continue
                present.add((vid, pid))
                step.append(InsertStatement(
                    "vendor", [{"vid": vid, "pid": pid, "price": float(value)}]
                ))
            elif kind == "update_price":
                step.append(UpdateStatement("vendor", {"price": float(value)}, keys=[(vid, pid)]))
            elif kind == "delete_vendor":
                present.discard((vid, pid))
                step.append(DeleteStatement("vendor", keys=[(vid, pid)]))
            elif kind == "rename_product":
                name = NAMES[value % len(NAMES)]
                step.append(UpdateStatement("product", {"pname": name}, keys=[(pid,)]))
            else:
                doomed = sorted(key for key in present if key[1] == pid)
                present.difference_update(doomed)
                if doomed:
                    step.append(DeleteStatement("vendor", keys=doomed))
        if step:
            steps.append(step)
    return steps


def catalog_database():
    database = build_paper_database(with_foreign_keys=False)
    database.load_rows("product", [P4])
    return database


def catalog_sharded():
    """One shard: a rename can move a product into any other product's
    element, so no split of this alphabet's rows is view-closed."""
    database = build_sharded_paper_database(1)
    database.load_rows("product", [P4])
    return database


# ---------------------------------------------------------------------------
# Scenarios and evaluators
# ---------------------------------------------------------------------------


def _ignore(*args) -> None:
    return None


@dataclass
class Scenario:
    """What every evaluator is built from."""

    database: Callable[[], Any]
    views: Sequence[Any]
    triggers: Sequence[str]
    #: The same data as a ``ShardedDatabase`` (for :data:`SERVER`).
    sharded: Callable[[], Any] | None = None
    action: str = "sink"
    #: One ``PlanCache`` per mode for every replay of this scenario.
    #: Translation reads only the views, the trigger texts, the schema and
    #: the mode, so a property that keeps its scenario translates once per
    #: mode; what the evaluators differ in, evaluation, runs on every replay.
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    def install(self, target) -> None:
        for view in self.views:
            target.register_view(view)
        target.register_action(self.action, _ignore)
        if self.triggers:
            target.register_triggers_bulk(list(self.triggers))


def catalog(triggers: Sequence[str] = CATALOG_TRIGGERS, views=None) -> Scenario:
    return Scenario(catalog_database, views or [catalog_view()], triggers, catalog_sharded)


def _attempt(run: Callable[[], Any]) -> str | None:
    """The type of the relational error ``run`` raised, if any: a statement
    may fail (and must fail alike everywhere); a trigger may not."""
    try:
        run()
    except RelationalError as error:
        return type(error).__name__
    return None


class _Run:
    """One evaluator's own database and what fires on it.  A run stays
    inspectable after the replay (services keep their triggers)."""

    services: tuple = ()

    def close(self) -> None:
        return None


class _OracleRun(_Run):
    def __init__(self, scenario: Scenario) -> None:
        self.database = scenario.database()
        self.target = MaterializedBaseline(self.database)
        for view in scenario.views:
            self.target.register_view(view)
        self.target.register_action(scenario.action, _ignore)
        for text in scenario.triggers:
            self.target.create_trigger(parse_trigger(text))

    def step(self, statements) -> tuple[str | None, list]:
        calls: list = []
        error = _attempt(lambda: [calls.extend(self.target.execute(s)[2]) for s in statements])
        events = {spec.name: spec.event for spec in self.target.triggers}
        return error, [
            (c.trigger_name, events[c.trigger_name], c.key, c.old_node, c.new_node) for c in calls
        ]

    def tables(self) -> dict:
        return tables(self.database.snapshot())


def _registered_sides(service, table: str) -> int:
    """Distinct shared sides over every (path, ``table``) translation installed."""
    sides = {}
    for compiled in service._groups.values():
        translation = compiled.translations.get(table)
        if translation is not None:
            sides.update((id(op), op) for op in translation.sides.shared_operators)
    return len(sides)


def _check_counter(engine: "Engine", before: dict, after: dict, service, reached) -> None:
    """The counter only ``engine`` can move moved on the tables ``reached``
    (one entry per statement, or net slice, that fired a translation)."""
    evaluated = after["shared_side_evaluations"] - before["shared_side_evaluations"]
    if not engine.options.get("use_compiled_plans", True):
        assert evaluated == 0, "the interpreter never shares a side"
    elif engine.options.get("backend") is not None:
        grew = after["backend_statements"] - before["backend_statements"]
        assert grew > 0 or not reached, f"{engine.name}: no backend statement for {reached}"
    else:
        allowed = sum(_registered_sides(service, table) for table in reached)
        assert (evaluated > 0) == bool(reached) and evaluated <= allowed, (
            f"{engine.name}: {evaluated} shared side evaluations for {reached}"
        )


def _reached(service, results) -> list[str]:
    """The tables of the ``results`` that changed rows under a translation."""
    translated = {table for c in service._groups.values() for table in c.translations}
    return [r.table for r in results if r.rowcount and r.table in translated]


class _ServiceRun(_Run):
    def __init__(self, scenario: Scenario, mode, plans, engine: "Engine") -> None:
        self.engine = engine
        self.database = scenario.database()
        self.target = ActiveViewService(self.database, mode, plan_cache=plans, **engine.options)
        self.services = (self.target,)
        scenario.install(self.target)

    def step(self, statements) -> tuple[str | None, list]:
        service, mark, results = self.target, len(self.target.fired), []
        before = service.evaluation_report()
        if self.engine.batched:
            error = _attempt(lambda: results.extend(service.execute_batch(statements).deltas))
        else:
            error = _attempt(lambda: [results.append(service.execute(s)) for s in statements])
        if error is None:
            after = service.evaluation_report()
            _check_counter(self.engine, before, after, service, _reached(service, results))
        return error, [
            (f.trigger, f.event, f.key, f.old_node, f.new_node) for f in service.fired[mark:]
        ]

    def tables(self) -> dict:
        backend = self.target.backend
        if backend is not None:
            for table in self.database.table_names():
                mirrored = sorted(tuple(row) for row in backend.mirror_rows(table))
                assert mirrored == sorted(self.database.table(table).rows()), table
        return tables(self.database.snapshot())

    def close(self) -> None:
        if self.target.backend is not None:
            self.target.backend.close()  # its SQLite connection; triggers stay inspectable


class _ServerRun(_Run):
    def __init__(self, scenario: Scenario, mode, plans, engine: "Engine") -> None:
        self.engine = engine
        self.target = ActiveViewServer(scenario.sharded(), mode, service_options=engine.options)
        self.services = tuple(self.target.services)
        scenario.install(self.target)
        self.delivered: list = []
        self.target.add_activation_hook(self.delivered.extend)
        self.target.start()

    def step(self, statements) -> tuple[str | None, list]:
        mark, results = len(self.delivered), []
        before = self.target.evaluation_report()
        error = _attempt(lambda: [results.append(self.target.execute(s)) for s in statements])
        if error is None:
            # Every shard service holds the same translations (one PlanCache).
            shard = self.services[0]
            after = self.target.evaluation_report()
            _check_counter(self.engine, before, after, shard, _reached(shard, results))
        return error, [
            (a.trigger, a.event, a.key, a.old_node, a.new_node) for a in self.delivered[mark:]
        ]

    def tables(self) -> dict:
        return tables(self.target.sharded.snapshot())

    def close(self) -> None:
        self.target.stop()


class Oracle:
    name = "oracle"

    def open(self, scenario: Scenario, mode, plans) -> _OracleRun:
        return _OracleRun(scenario)


@dataclass(frozen=True)
class Engine:
    """An ``ActiveViewService`` configuration (or a server's shard services)."""

    name: str
    options: dict = field(default_factory=dict, hash=False)
    batched: bool = False
    #: The replay's mode when ``None``.
    mode: ExecutionMode | None = None
    served: bool = False

    def open(self, scenario: Scenario, mode, plans):
        run = _ServerRun if self.served else _ServiceRun
        return run(scenario, self.mode or mode, plans, self)


ORACLE = Oracle()
INTERPRETED = Engine("interpreted", {"use_compiled_plans": False})
COMPILED = Engine("compiled")
SQLITE = Engine("sqlite", {"backend": "sqlite"})
BATCH = Engine("batch", batched=True)
SERVER = Engine("server", served=True)
EVERY_EVALUATOR = (ORACLE, INTERPRETED, COMPILED, SQLITE, BATCH, SERVER)


# ---------------------------------------------------------------------------
# The replay
# ---------------------------------------------------------------------------


def _compensated(runs) -> set[tuple[str, str]]:
    """``(trigger, table)`` pairs some evaluator serves from GROUPED-AGG's
    compensated OLD_NODE side."""
    pairs = set()
    for run in runs:
        for service in run.services:
            for compiled in service._groups.values():
                for table, translation in compiled.translations.items():
                    if translation.uses_compensation:
                        pairs.update((m.spec.name, table) for m in compiled.group.members)
    return pairs


def _text(node) -> str | None:
    return None if node is None else serialize(node)


class Replay:
    """Every evaluator on its own database, compared after every step."""

    def __init__(self, scenario: Scenario, evaluators, mode=ExecutionMode.GROUPED_AGG) -> None:
        self.evaluators = list(evaluators)
        self.runs: list = []
        plans = scenario.plans.setdefault(mode, PlanCache())
        try:
            for evaluator in self.evaluators:
                self.runs.append(evaluator.open(scenario, mode, plans))
        except BaseException:
            self.close()
            raise
        self.targets = {e.name: run.target for e, run in zip(self.evaluators, self.runs)}
        #: The reference evaluator's ``(error, records)`` per step.
        self.log: list[tuple] = []

    def step(self, statements) -> list[tuple]:
        """Run one step everywhere; the records all evaluators agree on."""
        statements = list(statements)
        touched = {statement.table for statement in statements}
        shallow = {t for t, table in _compensated(self.runs) if table in touched}
        outcomes = []
        for run in self.runs:
            error, fired = run.step(statements)
            records = []
            for trigger, event, key, old, new in fired:
                if trigger in shallow and old is not None:
                    old = Element(old.name, old.attributes)
                records.append((trigger, event.value, key, _text(old), _text(new)))
            outcomes.append((error, sorted(records, key=repr)))
        states = [run.tables() for run in self.runs]
        names = [evaluator.name for evaluator in self.evaluators]
        for name, outcome, state in zip(names[1:], outcomes[1:], states[1:]):
            assert outcome == outcomes[0], f"{name} != {names[0]} on {statements}"
            assert state == states[0], f"{name} tables != {names[0]} on {statements}"
        self.log.append(outcomes[0])
        return outcomes[0][1]

    def close(self) -> None:
        for run in self.runs:
            run.close()

    def __enter__(self) -> "Replay":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay(scenario: Scenario, evaluators, steps, mode=ExecutionMode.GROUPED_AGG) -> Replay:
    """Run every step of ``steps`` through :class:`Replay`; returns it closed."""
    with Replay(scenario, evaluators, mode) as run:
        for step in steps:
            run.step(step)
    return run


def in_order(service) -> list[tuple]:
    """A service's firings as records, in firing order."""
    return [
        (f.trigger, f.event.value, f.key, _text(f.old_node), _text(f.new_node))
        for f in service.fired
    ]


def fired(run: Replay) -> list[tuple]:
    """Every record of a finished replay."""
    return [record for _, records in run.log for record in records]
