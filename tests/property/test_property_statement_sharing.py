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
   however many groups fired, and by at least one.

Both are the checks of :mod:`tests.property.differential`, which runs them.

Randomness is reproducible: hypothesis draws are derived from the session
seed printed in the pytest header (``REPRO_TEST_SEED``, see
``docs/testing.md``); CI's stress step pins it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.pushdown import OldNodeRequirement
from repro.core.service import ExecutionMode
from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters

from tests.property.differential import (
    BATCH,
    COMPILED,
    EXAMPLES,
    INTERPRETED,
    SERVER,
    Scenario,
    budget,
    fired,
    replay,
)

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
    st.builds(lambda leaf: ("delete_leaf", leaf, 0), st.integers(1, _LEAVES + 4)),
    st.builds(lambda leaf, price: ("insert_leaf", leaf, price),
              st.integers(1, _LEAVES + 4), st.integers(1, 900)),
    st.builds(lambda top, name: ("rename_top", top, name),
              st.integers(1, _TOPS), st.sampled_from(["renamed", "name_1", "name_2"])),
    st.builds(lambda mid, name: ("rename_mid", mid, name),
              st.integers(1, _MIDS), st.sampled_from(["renamed", "L1_1", "L1_7"])),
)


def _steps(actions, batch_size: int = 1) -> list[list]:
    """The statements of ``actions``, ``batch_size`` to a step, against the
    leaf rows the statements before leave; an action that cannot apply is
    dropped.  Every statement names its keys, so a sharded server routes it
    to one shard."""
    present = {row[0] for row in _WORKLOAD.build_database().table("leaf")}
    statements = []
    for kind, target, value in actions:
        if kind == "update_leaf" and target in present:
            statements.append(UpdateStatement("leaf", {"price": value + 0.25}, keys=[(target,)]))
        elif kind == "delete_leaf" and target in present:
            present.discard(target)
            statements.append(DeleteStatement("leaf", keys=[(target,)]))
        elif kind == "insert_leaf" and target not in present:
            present.add(target)
            # Round-robin parents, like the generator: ancestry stays
            # arithmetic (which is what the sharded placement routes by).
            statements.append(InsertStatement("leaf", [{
                "id": target, "parent_id": ((target - 1) % _MIDS) + 1,
                "price": value + 0.5, "code": f"new{target}",
            }]))
        elif kind in ("rename_top", "rename_mid"):
            table = "top" if kind == "rename_top" else "mid1"
            statements.append(UpdateStatement(table, {"name": value}, keys=[(target,)]))
    return [statements[i:i + batch_size] for i in range(0, len(statements), batch_size)]


def _scenario(population) -> Scenario:
    return Scenario(
        _WORKLOAD.build_database, [_WORKLOAD.build_view()], _definitions(population),
        lambda: _WORKLOAD.build_sharded_database(2),
    )


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


_MODES = pytest.mark.parametrize("mode", [ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG])


@_MODES
@given(population=_populations(), actions=st.lists(_actions, min_size=1, max_size=8))
@budget()
def test_per_statement_engines_agree_and_each_side_evaluates_once(mode, population, actions):
    run = replay(_scenario(population), [INTERPRETED, COMPILED], _steps(actions), mode)
    _assert_population(run.targets["compiled"], population, mode)


@_MODES
@given(
    population=_populations(),
    actions=st.lists(_actions, min_size=1, max_size=10),
    batch_size=st.integers(1, 4),
)
@budget()
def test_batches_engines_agree_and_each_slice_evaluates_each_side_once(
    mode, population, actions, batch_size
):
    """``execute_batch``: one firing — one memo — per (table, event) slice."""
    engines = [replace(INTERPRETED, batched=True), BATCH]
    replay(_scenario(population), engines, _steps(actions, batch_size), mode)


@given(population=_populations(), actions=st.lists(_actions, min_size=1, max_size=8))
@budget(max(5, EXAMPLES // 2))
def test_two_shard_server_sharing_one_plan_cache(population, actions):
    """Two shard services combine the *same* sides (one PlanCache) yet never
    see each other's rows: the server's activations equal the interpreted
    service's through the path a shard worker takes, and no statement
    evaluates a side twice."""
    engines = [replace(INTERPRETED, batched=True), SERVER]
    run = replay(_scenario(population), engines, _steps(actions))
    first, second = run.targets["server"].services
    for signature, compiled in first._groups.items():
        for table, translation in compiled.translations.items():
            sibling = second._groups[signature].translations[table]
            assert sibling is translation and sibling.sides is translation.sides


@pytest.mark.parametrize("renames_first", [True, False], ids=["renames-first", "leaves-first"])
def test_a_batch_renaming_two_tops_into_one_name_keeps_one_old_node_per_key(renames_first):
    """The batch path keeps one activation per (trigger, event, key) and
    batch.  Here the ``top`` and ``leaf`` slices of one batch each offer a
    pair for keys 1 and 2, with different OLD_NODE names; the pair kept is
    the first slice's, an order the batch fixes for every engine.  Within
    the ``top`` slice the compensated side offers one group per key, not one
    under the old and one under the new name: a compensated group counts the
    rows it had before the update and is dropped when it had none."""
    population = [(4, "topelem", ["name_3"], 1), (5, "topelem", ["name_3"], 1)]
    renames = [("rename_top", 1, "renamed"), ("rename_top", 2, "renamed")]
    leaves = [("update_leaf", 1, 7), ("update_leaf", 2, 9)]
    actions = renames + leaves if renames_first else leaves + renames
    engines = [replace(INTERPRETED, batched=True), BATCH]
    run = replay(_scenario(population), engines, _steps(actions, 4), ExecutionMode.GROUPED_AGG)
    _assert_population(run.targets["batch"], population, ExecutionMode.GROUPED_AGG)
    # (trigger, key, the kept OLD_NODE's @name)
    kept = [(trigger, key, old.split('"')[1]) for trigger, _, key, old, _ in fired(run)]
    assert [(trigger, key) for trigger, key, _ in kept] == [
        ("g0m0", (1,)), ("g0m0", (2,)), ("g1m0", (1,)), ("g1m0", (2,)),
    ]
    if renames_first:
        assert [name for _, _, name in kept] == ["name_1", "name_2"] * 2
