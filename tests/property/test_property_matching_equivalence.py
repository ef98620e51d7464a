"""Property-based equivalence: indexed matching == linear scan == ungrouped.

PR 6 adds the matching subsystem (:mod:`repro.matching`): per-group
predicate indexes (equality hash + interval tree) select candidate
constants rows instead of probing every registered constant set linearly,
and a path trie drives registration bookkeeping.  Indexes are pure
*matching* accelerators — they must never change which triggers fire.

These properties pin three engines to each other on randomized trigger
populations (equality predicates, one- and two-sided numeric ranges,
overlapping monitored paths, condition-free triggers) under randomized DML
interleaved with trigger DDL (register / bulk-register / drop / drop_view):

* the indexed GROUPED_AGG engine (``use_matching_indexes=True``, default);
* the linear-scan GROUPED_AGG oracle (``use_matching_indexes=False`` — the
  per-constants-row scan the seed system performed);
* the UNGROUPED engine, where every trigger is evaluated independently —
  grouping and matching both disappear, so it pins the grouped pipeline
  end to end, not just the index lookup.

Every population here is fully indexable, and the indexed services assert
**zero** silent fallbacks to the linear scan (``matching_fallbacks`` in the
evaluation report) — an unindexable plan slipping through would hide index
bugs behind the fallback's correct answers.  The comparison is
:mod:`tests.property.differential`'s.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.core.service import ActiveViewService, ExecutionMode
from repro.xqgm.views import catalog_view

from tests.property.differential import (
    COMPILED,
    EXAMPLES,
    NAMES,
    Replay,
    Scenario,
    budget,
    catalog,
    catalog_actions,
    catalog_database,
    catalog_steps,
    replay,
)

#: The indexed GROUPED_AGG engine, its linear-scan oracle, and UNGROUPED.
_ENGINES = [
    replace(COMPILED, name="indexed"),
    replace(COMPILED, name="linear", options={"use_matching_indexes": False}),
    replace(COMPILED, name="ungrouped", mode=ExecutionMode.UNGROUPED),
]

# -- randomized trigger populations -------------------------------------------------
#
# Every template is indexable: equality atoms, range atoms, or no condition.
# (The executing properties stay on the product path; path overlap is
# exercised on the hierarchy view below, and vendor-path matchers are pinned
# directly in ``test_matcher_candidates_match_linear_rows_directly``.)

_trigger_templates = st.one_of(
    st.builds(
        lambda name, var: ("product", f"{var}/@name = '{name}'"),
        st.sampled_from(NAMES), st.sampled_from(["OLD_NODE", "NEW_NODE"]),
    ),
    st.builds(
        lambda low: ("product", f"NEW_NODE/vendor/price >= {low}"),
        st.integers(10, 290),
    ),
    st.builds(
        lambda low, width: (
            "product",
            f"NEW_NODE/vendor/price >= {low} and NEW_NODE/vendor/price < {low + width}",
        ),
        st.integers(10, 250), st.integers(1, 80),
    ),
    st.builds(
        lambda low: ("product", f"count(NEW_NODE/vendor) >= 1 and "
                                f"NEW_NODE/vendor/price >= {low}"),
        st.integers(10, 290),
    ),
    st.just(("product", None)),
)


def _definition(index: int, template) -> str:
    path, condition = template
    where = f"WHERE {condition} " if condition else ""
    return (
        f"CREATE TRIGGER t{index} AFTER UPDATE ON view('catalog')/{path} "
        f"{where}DO sink(NEW_NODE)"
    )


def _assert_no_fallbacks(targets) -> None:
    for name in ("indexed", "ungrouped"):
        assert targets[name].evaluation_report()["matching_fallbacks"] == 0


@given(
    templates=st.lists(_trigger_templates, min_size=1, max_size=8),
    actions=st.lists(catalog_actions(), min_size=1, max_size=6),
)
@budget()
def test_indexed_matches_linear_and_ungrouped_per_statement(templates, actions):
    scenario = catalog([_definition(i, t) for i, t in enumerate(templates)])
    _assert_no_fallbacks(replay(scenario, _ENGINES, catalog_steps(actions)).targets)


@given(
    templates=st.lists(_trigger_templates, min_size=1, max_size=8),
    actions=st.lists(catalog_actions(), min_size=1, max_size=8),
    batch_size=st.integers(1, 4),
)
@budget()
def test_indexed_matches_linear_and_ungrouped_per_batch(templates, actions, batch_size):
    """The set-oriented batch path probes the same indexes: all engines agree."""
    scenario = catalog([_definition(i, t) for i, t in enumerate(templates)])
    engines = [replace(engine, batched=True) for engine in _ENGINES]
    _assert_no_fallbacks(replay(scenario, engines, catalog_steps(actions, batch_size)).targets)


@given(
    templates=st.lists(_trigger_templates, min_size=2, max_size=10),
    actions=st.lists(catalog_actions(), min_size=2, max_size=8),
    ddl_seed=st.randoms(use_true_random=False),
)
@budget()
def test_equivalence_under_interleaved_ddl(templates, actions, ddl_seed):
    """Register / bulk-register / drop / drop_view interleaved with DML.

    Index maintenance (incremental add, tombstoned remove, trie prune,
    drop_view teardown, rebuild after invalidation) must leave the indexed
    engine indistinguishable from the scan at every point in the schedule.
    """
    definitions = [_definition(i, t) for i, t in enumerate(templates)]

    # A deterministic DDL schedule derived from the drawn Random: each DML
    # action is preceded by one DDL step.
    registered: list[str] = []
    pending = list(definitions)
    schedule = []
    for _ in actions:
        choice = ddl_seed.random()
        if pending and (choice < 0.45 or not registered):
            if len(pending) >= 2 and choice < 0.15:
                take, pending = pending[:2], pending[2:]
                schedule.append(("bulk", take))
                registered.extend(d.split()[2] for d in take)
            else:
                definition = pending.pop(0)
                schedule.append(("create", definition))
                registered.append(definition.split()[2])
        elif registered and choice < 0.85:
            schedule.append(("drop", registered.pop(ddl_seed.randrange(len(registered)))))
        else:
            schedule.append(("noop", None))

    steps = catalog_steps(actions)
    with Replay(catalog(()), _ENGINES) as run:
        services = list(run.targets.values())
        for (kind, payload), step in zip(schedule, steps):
            for service in services:
                if kind == "create":
                    service.create_trigger(payload)
                elif kind == "bulk":
                    service.register_triggers_bulk(payload)
                elif kind == "drop":
                    service.drop_trigger(payload)
            run.step(step)

        # Same surviving triggers everywhere.
        names = {tuple(sorted(s.name for s in service.triggers)) for service in services}
        assert len(names) == 1
        _assert_no_fallbacks(run.targets)

        # drop_view tears every index down; re-registering starts clean and
        # the engines still agree on a fresh round of DML.
        for service in services:
            service.drop_view("catalog")
            assert service.triggers == []
            service.register_view(catalog_view())
            for definition in definitions[:3]:
                service.create_trigger(definition)
        for step in steps:
            run.step(step)
        _assert_no_fallbacks(run.targets)


@given(
    population_seed=st.integers(0, 2**32 - 1),
    statements_count=st.integers(2, 6),
)
@budget(max(5, EXAMPLES // 3))
def test_equivalence_with_overlapping_paths(population_seed, statements_count):
    """Overlapping monitored paths on the nested hierarchy view.

    Triggers monitor both the top element and the nested top/mid path, so
    the path trie holds a monitored path that is a strict prefix of another
    and one group's statements fire the other's; indexed, linear, and
    ungrouped engines must still agree.
    """
    import random as random_module

    from repro.workloads import HierarchyWorkload, WorkloadParameters

    rng = random_module.Random(population_seed)
    parameters = WorkloadParameters(
        depth=3, leaf_tuples=96, fanout=8,
        num_triggers=1, satisfied_triggers=1, seed=13,
    )
    workload = HierarchyWorkload(parameters)
    top, mid = workload.level_element(0), workload.level_element(1)
    view_name = parameters.view_name

    templates = [
        (top, f"OLD_NODE/@name = '{workload.target_top_name}'"),
        (top, f"NEW_NODE/@name = 'name_{rng.randrange(4)}'"),
        (top, None),
        (f"{top}/{mid}", f"NEW_NODE/@name = 'name_{rng.randrange(8)}'"),
        (f"{top}/{mid}", None),
    ]
    rng.shuffle(templates)
    templates = templates[: rng.randint(2, len(templates))]

    definitions = [
        f"CREATE TRIGGER t{index} AFTER UPDATE ON view('{view_name}')/{path} "
        f"{f'WHERE {condition} ' if condition else ''}DO sink(NEW_NODE)"
        for index, (path, condition) in enumerate(templates)
    ]
    scenario = Scenario(workload.build_database, [workload.build_view()], definitions)
    statements = workload.update_statements(statements_count, workload.build_database())
    _assert_no_fallbacks(replay(scenario, _ENGINES, [[s] for s in statements]).targets)


def test_matcher_candidates_match_linear_rows_directly():
    """Groups' index probes == their own linear row scans, row for row.

    A sharper pin than end-to-end firing: for every compiled group and every
    (old, new) pair of real materialized view nodes, the matcher's candidate
    set must contain every row the full parameterized condition accepts —
    and equal it exactly whenever the matcher certifies coverage (no
    residual evaluation needed).
    """
    from repro.matching import MATCH_COUNTERS

    database = catalog_database()
    service = ActiveViewService(database, ExecutionMode.GROUPED_AGG)
    catalog(()).install(service)
    for index, (path, condition) in enumerate([
        ("product", "OLD_NODE/@name = 'CRT 15'"),
        ("product", "OLD_NODE/@name = 'LCD 19'"),
        ("product", "NEW_NODE/vendor/price >= 50 and NEW_NODE/vendor/price < 150"),
        ("product", "NEW_NODE/vendor/price >= 150 and NEW_NODE/vendor/price < 400"),
        ("product/vendor", "NEW_NODE/price = 120"),
        ("product/vendor", "OLD_NODE/price < 120"),
    ]):
        service.create_trigger(_definition(index, (path, condition)))

    view = catalog_view()
    nodes_by_path = {
        ("product",): list(view.element_nodes("/product", database).values()),
        ("product", "vendor"): list(
            view.element_nodes("/product/vendor", database).values()
        ),
    }

    checked = 0
    matched = 0
    for compiled in service._groups.values():
        matcher = compiled.matcher()
        condition = compiled.group.parameterized_condition()
        assert condition is not None
        rows = matcher.rows()
        nodes = nodes_by_path[compiled.group.members[0].spec.path]
        assert len(nodes) >= 2
        # Same-node pairs plus shifted pairs: OLD and NEW genuinely differ.
        pairs = list(zip(nodes, nodes)) + list(zip(nodes, nodes[1:] + nodes[:1]))
        for old_node, new_node in pairs:
            variables = {"OLD_NODE": old_node, "NEW_NODE": new_node}
            candidates, needs_residual = matcher.candidates(variables, dict.fromkeys(MATCH_COUNTERS, 0))
            truth = {
                id(row) for row in rows
                if condition.as_boolean(variables, parameters=row.condition_constants)
            }
            candidate_set = {id(row) for row in candidates}
            assert truth <= candidate_set
            if not needs_residual:
                assert candidate_set == truth
            checked += 1
            matched += len(truth)
    assert checked > 0
    assert matched > 0, "every probe had an empty truth set: the pin is vacuous"
