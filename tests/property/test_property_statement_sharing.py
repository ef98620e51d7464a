"""Property-based pin on statement-level sharing of the OLD/NEW node sides.

Figure 12 derives the INSERT, UPDATE and DELETE pairs of a monitored path
from the same two sub-plans, and translation builds them once per
``(path, table)`` (:class:`repro.core.pushdown.SharedSides`); at run time the
compiled engine keeps each side — and each translation's derived pairs — in
the firing statement's evaluation memo, so every sibling
trigger group and sibling event reads them back.  These properties draw
random trigger *populations*:

* 2–8 trigger groups over one or two monitored paths (``/topelem`` and the
  nested ``/topelem/midelem1``; both push their affected keys, and under
  GROUPED-AGG a translation is compensated unless an affected-key graph
  crosses a join through several legs);
* all three XML events and all three ``OldNodeRequirement``\\ s (none /
  shallow / full), so compensated and full OLD_NODE sides sit side by side;
* GROUPED and GROUPED-AGG,

and run random DML against them per statement, in ``execute_batch`` batches,
and through a 2-shard :class:`~repro.serving.ActiveViewServer` whose shard
services share one ``PlanCache``.  Each asserts

1. compiled == interpreted (the oracle, which never consults the memo)
   value-for-value — trigger, event, key, OLD_NODE and NEW_NODE;
2. **each statement evaluates every shared side at most once**:
   ``shared_side_evaluations`` grows per firing by no more than the number of
   distinct shared sides registered for the fired ``(path, table)``\\ s,
   however many groups fired;
3. the zero-silent-fallback guard (``compiled_plan_fallbacks == 0``).

Randomness is reproducible: hypothesis draws are derived from the session
seed printed in the pytest header (``REPRO_TEST_SEED``, see
``docs/testing.md``); CI's stress step pins it.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pushdown import OldNodeRequirement
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.serving import ActiveViewServer
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xmlmodel import serialize

# The tier-1 run uses the (fast) default budget; CI's stress step re-runs
# this file with a larger one (and a pinned seed).
_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))

#: 6 top elements x 2 mid elements x 2 leaves: one deleted leaf takes its mid
#: element below the view's ``count >= 2`` predicate (a DELETE on the nested
#: path, an UPDATE on the top one), two take the whole top element away.
_PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)
_WORKLOAD = HierarchyWorkload(_PARAMETERS)
_TOPS, _MIDS, _LEAVES = _WORKLOAD.nodes_per_level()

#: path -> (child element, name constants that occur in the data).
_PATHS = {
    "topelem": ("midelem1", [_WORKLOAD.top_name(i) for i in (1, 2, 3)] + ["renamed"]),
    "topelem/midelem1": ("leafelem", ["L1_1", "L1_2", "L1_7", "renamed"]),
}

#: (event, OldNodeRequirement, condition, action argument); ``{c}`` is a name
#: constant, ``{n}`` a small count, ``{child}`` the path's child element.
#: Every template is a different structural shape, i.e. its own trigger group.
_TEMPLATES = [
    ("UPDATE", OldNodeRequirement.NONE, "NEW_NODE/@name = '{c}'", "NEW_NODE/@name"),
    ("UPDATE", OldNodeRequirement.NONE, "count(NEW_NODE/{child}) < {n}", "NEW_NODE"),
    ("UPDATE", OldNodeRequirement.NONE, None, "NEW_NODE"),
    ("UPDATE", OldNodeRequirement.SHALLOW, "OLD_NODE/@name = '{c}'", "NEW_NODE"),
    ("UPDATE", OldNodeRequirement.SHALLOW, "OLD_NODE/@name != '{c}'", "OLD_NODE/@name"),
    ("UPDATE", OldNodeRequirement.FULL, "count(OLD_NODE/{child}) >= {n}", "OLD_NODE/{child}"),
    ("UPDATE", OldNodeRequirement.FULL, "OLD_NODE/@name = '{c}'", "OLD_NODE/{child}"),
    ("INSERT", OldNodeRequirement.NONE, "NEW_NODE/@name = '{c}'", "NEW_NODE"),
    ("INSERT", OldNodeRequirement.NONE, None, "NEW_NODE/@name"),
    ("DELETE", OldNodeRequirement.NONE, None, "'gone'"),
    ("DELETE", OldNodeRequirement.SHALLOW, "OLD_NODE/@name = '{c}'", "OLD_NODE/@name"),
    ("DELETE", OldNodeRequirement.FULL, None, "OLD_NODE/{child}"),
    ("DELETE", OldNodeRequirement.FULL, "count(OLD_NODE/{child}) >= {n}", "OLD_NODE"),
]


@st.composite
def _populations(draw):
    """2–8 groups: distinct (template, path) shapes, 1–2 triggers each."""
    paths = list(_PATHS) if draw(st.booleans()) else ["topelem"]
    shapes = draw(
        st.lists(
            st.tuples(st.sampled_from(range(len(_TEMPLATES))), st.sampled_from(paths)),
            min_size=2, max_size=8, unique=True,
        )
    )
    groups = []
    for template, path in shapes:
        constants = draw(
            st.lists(st.sampled_from(_PATHS[path][1]), min_size=1, max_size=2, unique=True)
        )
        groups.append((template, path, constants, draw(st.integers(1, 3))))
    return groups


def _definitions(population) -> list[str]:
    definitions = []
    for group, (template, path, constants, count) in enumerate(population):
        event, _, condition, argument = _TEMPLATES[template]
        child = _PATHS[path][0]
        # A condition without a name constant yields one trigger per group.
        for member, constant in enumerate(constants if condition and "{c}" in condition else [None]):
            where = ""
            if condition is not None:
                where = " WHERE " + condition.format(c=constant, n=count, child=child)
            definitions.append(
                f"CREATE TRIGGER g{group}m{member} AFTER {event} "
                f"ON view('{_PARAMETERS.view_name}')/{path}{where} "
                f"DO sink({argument.format(child=child)})"
            )
    return definitions


_actions = st.one_of(
    st.builds(lambda leaf, price: ("update_leaf", leaf, price),
              st.integers(1, _LEAVES), st.integers(1, 900)),
    st.builds(lambda leaf: ("delete_leaf", leaf), st.integers(1, _LEAVES + 4)),
    st.builds(lambda leaf, price: ("insert_leaf", leaf, price),
              st.integers(1, _LEAVES + 4), st.integers(1, 900)),
    st.builds(lambda top, name: ("rename_top", top, name),
              st.integers(1, _TOPS), st.sampled_from(["renamed", "name_1", "name_2"])),
    st.builds(lambda mid, name: ("rename_mid", mid, name),
              st.integers(1, _MIDS), st.sampled_from(["renamed", "L1_1", "L1_7"])),
)


def _to_statement(action, exists):
    """Realize an action against the current leaf population (``exists``
    answers for a leaf id); ``None`` when it cannot apply.  Every statement
    names its keys, so a sharded server routes it to one shard."""
    kind = action[0]
    if kind == "update_leaf":
        _, leaf, price = action
        if not exists(leaf):
            return None
        return UpdateStatement("leaf", {"price": price + 0.25}, keys=[(leaf,)])
    if kind == "delete_leaf":
        return DeleteStatement("leaf", keys=[(action[1],)]) if exists(action[1]) else None
    if kind == "insert_leaf":
        _, leaf, price = action
        if exists(leaf):
            return None
        # Round-robin parents, like the generator: ancestry stays arithmetic
        # (which is what the sharded placement routes by).
        return InsertStatement("leaf", [{
            "id": leaf, "parent_id": ((leaf - 1) % _MIDS) + 1,
            "price": price + 0.5, "code": f"new{leaf}",
        }])
    table = "top" if kind == "rename_top" else "mid1"
    return UpdateStatement(table, {"name": action[2]}, keys=[(action[1],)])


def _build_service(mode, population, **engine):
    database = _WORKLOAD.build_database()
    service = ActiveViewService(database, mode=mode, **engine)
    service.register_view(_WORKLOAD.build_view())
    service.register_action("sink", lambda *args: None)
    service.register_triggers_bulk(_definitions(population))
    return database, service


def _engines(mode, population):
    """(interpreted oracle, compiled), each on its own database."""
    return (
        _build_service(mode, population, use_compiled_plans=False),
        _build_service(mode, population),
    )


def _normalize(fired, population=None):
    """Sorted (trigger, event, key, OLD_NODE, NEW_NODE) activations.

    With a ``population`` the OLD_NODE is compared only for groups that need
    the *full* old node.  That is for executions through the batch path,
    which activates a node at most once per trigger and batch: where the
    compensated old side offers two candidate pairs for one key (a renamed
    top element keeps a group under its old and its new name), which one
    survives depends on pair order — and order is what the engines do not
    promise once a side was read back from the statement memo.
    """
    text = lambda node: None if node is None else serialize(node)
    full = None if population is None else {
        f"g{group}m"
        for group, (template, _, _, _) in enumerate(population)
        if _TEMPLATES[template][1] == OldNodeRequirement.FULL
    }
    return sorted(
        (
            f.trigger, f.event.value, f.key,
            text(f.old_node) if full is None or f.trigger[:-1] in full else None,
            text(f.new_node),
        )
        for f in fired
    )


def _tables(snapshot) -> dict:
    """Table contents irrespective of row (and shard) order."""
    return {table: sorted(rows) for table, rows in snapshot.items()}


def _registered_sides(service, table) -> int:
    """Distinct shared sides over every (path, ``table``) translation installed."""
    sides = {}
    for compiled in service._groups.values():
        translation = compiled.translations.get(table)
        if translation is not None:
            sides.update((id(op), op) for op in translation.sides.shared_operators)
    return len(sides)


def _assert_population(service, population, mode) -> None:
    """The drawn shapes really are that many groups, with the old-node
    requirements (and therefore old-side variants) the templates name."""
    assert service.group_count() == len(population)
    by_name = {}
    for compiled in service._groups.values():
        for member in compiled.group.members:
            by_name[member.spec.name] = compiled
    for group, (template, path, _, _) in enumerate(population):
        compiled = by_name[f"g{group}m0"]
        requirement = _TEMPLATES[template][1]
        for translation in compiled.translations.values():
            # NONE and SHALLOW share one translation (PushdownOptions.cache_key):
            # only "FULL or not" is a property of the plan.
            assert (translation.options.old_node_requirement == OldNodeRequirement.FULL) == (
                requirement == OldNodeRequirement.FULL
            )
            crossed = translation.sides.reference.multi_leg_join
            # /topelem is reached through one leg of every join: its
            # translations keep compensation wherever the mode allows it.
            assert crossed is False or path != "topelem"
            compensated = (
                mode is ExecutionMode.GROUPED_AGG
                and not crossed
                and requirement != OldNodeRequirement.FULL
            )
            assert translation.uses_compensation == compensated


def _assert_compiled_served(compiled) -> None:
    report = compiled.evaluation_report()
    assert report["compiled_plan_fallbacks"] == 0, report


_MODES = pytest.mark.parametrize("mode", [ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG])


@_MODES
@given(population=_populations(), actions=st.lists(_actions, min_size=1, max_size=8))
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_per_statement_engines_agree_and_each_side_evaluates_once(mode, population, actions):
    (interp_db, interp), (comp_db, comp) = _engines(mode, population)
    _assert_population(comp, population, mode)

    for action in actions:
        statements = [
            _to_statement(action, lambda leaf, db=db: db.table("leaf").get((leaf,)) is not None)
            for db in (interp_db, comp_db)
        ]
        if any(statement is None for statement in statements):
            assert all(statement is None for statement in statements)
            continue
        interp.execute(statements[0])
        before = comp.evaluation_report()
        comp.execute(statements[1])
        after = comp.evaluation_report()
        evaluated = after["shared_side_evaluations"] - before["shared_side_evaluations"]
        assert evaluated <= _registered_sides(comp, statements[1].table), (
            f"{statements[1].table}: {evaluated} side evaluations in one statement"
        )

    assert _normalize(comp.fired) == _normalize(interp.fired)
    assert comp_db.snapshot() == interp_db.snapshot()
    assert interp.evaluation_report()["shared_side_evaluations"] == 0  # the oracle never shares
    _assert_compiled_served(comp)


@_MODES
@given(
    population=_populations(),
    actions=st.lists(_actions, min_size=1, max_size=10),
    batch_size=st.integers(1, 4),
)
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_batches_engines_agree_and_each_slice_evaluates_each_side_once(
    mode, population, actions, batch_size
):
    """``execute_batch``: one firing — one memo — per (table, event) slice."""
    (interp_db, interp), (comp_db, comp) = _engines(mode, population)

    for start in range(0, len(actions), batch_size):
        chunks = []
        for db in (interp_db, comp_db):
            # Feasibility within a batch follows the statements before it.
            present = {row[0] for row in db.table("leaf")}
            chunk = []
            for action in actions[start:start + batch_size]:
                statement = _to_statement(action, present.__contains__)
                if statement is None:
                    continue
                if action[0] == "delete_leaf":
                    present.discard(action[1])
                elif action[0] == "insert_leaf":
                    present.add(action[1])
                chunk.append(statement)
            chunks.append(chunk)
        if not chunks[0]:
            continue
        interp.execute_batch(chunks[0])
        before = comp.evaluation_report()
        result = comp.execute_batch(chunks[1])
        after = comp.evaluation_report()
        allowed = sum(
            _registered_sides(comp, delta.table) for delta in result.deltas if delta.rowcount
        )
        evaluated = after["shared_side_evaluations"] - before["shared_side_evaluations"]
        assert evaluated <= allowed

    assert _normalize(comp.fired, population) == _normalize(interp.fired, population)
    assert comp_db.snapshot() == interp_db.snapshot()
    _assert_compiled_served(comp)


@given(population=_populations(), actions=st.lists(_actions, min_size=1, max_size=8))
@settings(
    max_examples=max(5, _EXAMPLES // 2),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_two_shard_server_sharing_one_plan_cache(population, actions):
    """Two shard services combine the *same* sides (one PlanCache) yet never
    see each other's rows: the server's activations equal the interpreted
    single-service oracle's, and no statement evaluates a side twice."""
    interp_db, interp = _build_service(
        ExecutionMode.GROUPED_AGG, population, use_compiled_plans=False
    )
    server = ActiveViewServer(_WORKLOAD.build_sharded_database(2))
    server.register_view(_WORKLOAD.build_view())
    server.register_action("sink", lambda *args: None)
    server.register_triggers_bulk(_definitions(population))
    first, second = server.services
    for signature, compiled in first._groups.items():
        for table, translation in compiled.translations.items():
            sibling = second._groups[signature].translations[table]
            assert sibling is translation and sibling.sides is translation.sides

    with server:
        for action in actions:
            statement = _to_statement(
                action, lambda leaf: interp_db.table("leaf").get((leaf,)) is not None
            )
            if statement is None:
                continue
            interp.execute_batch([statement])  # the path a shard worker takes
            before = server.evaluation_report()
            server.execute(statement)
            after = server.evaluation_report()
            evaluated = after["shared_side_evaluations"] - before["shared_side_evaluations"]
            assert evaluated <= _registered_sides(first, statement.table)

    assert _normalize(server.fired, population) == _normalize(interp.fired, population)
    assert _tables(server.sharded.snapshot()) == _tables(interp_db.snapshot())
    report = server.evaluation_report()
    assert report["compiled_plan_fallbacks"] == 0
