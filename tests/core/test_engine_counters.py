"""Scaling properties of the engine, pinned by program counters.

Each test states a cost property as a count the program keeps — constants
rows a matching probe reads, physical plans a statement executes, SQL
statements the SQLite backend runs — and checks that the count does not
grow with what must not matter (the trigger population, the batch size).
Counters repeat exactly across runs and machines; wall-clock ratios do not.

* Matching is sublinear: with 4 satisfied triggers, every UPDATE probes
  once and reads one candidate constants row whether 1 000 or 10 000
  triggers are registered.
* A batch runs each plan once: ``execute_batch`` of K independent leaf
  UPDATEs executes one physical plan where the per-statement loop executes K.
* The SQLite backend runs one statement per trigger group, not per trigger:
  GROUPED and GROUPED-AGG run one per UPDATE at 4 and at 40 triggers,
  UNGROUPED one per trigger per UPDATE.
* A nested path reads like a top-level one: with the affected keys pushed
  through every level, one leaf UPDATE reads at most twice the table rows
  under ``/topelem/...`` that it reads under ``/topelem`` (4 096 leaves,
  fanout 16, depths 3 and 4), and ``/topelem`` reads exactly what it read
  before nested paths were pushed down.
"""

from __future__ import annotations

import pytest

from repro.core.pushdown import OldNodeRequirement, PushdownOptions, translate_path
from repro.core.service import ActiveViewService, ExecutionMode
from repro.core.trigger import TriggerSpec, XmlTriggerEvent
from repro.relational.dml import UpdateStatement
from repro.relational.triggers import TriggerContext, TriggerEvent
from repro.workloads import ExperimentHarness, HierarchyWorkload, WorkloadParameters
from repro.xqgm.evaluate import EvaluationContext

#: Small fixed database for the matching check: only the population grows.
MATCHING_DATABASE = WorkloadParameters(
    depth=2, leaf_tuples=2_048, fanout=32, num_triggers=1, satisfied_triggers=1, seed=42
)

#: Triggers of the matching population that the update workload satisfies.
MATCHING_SATISFIED = 4


def matching_population(workload: HierarchyWorkload, total: int) -> list[TriggerSpec]:
    """``total`` UPDATE triggers on the top element, one constants row each.

    The first :data:`MATCHING_SATISFIED` watch the element every workload
    UPDATE touches; every other trigger gets a distinct constant that never
    matches, so each registered trigger adds one row to the group's
    constants table.
    """
    top = workload.level_element(0)
    specs = []
    for index in range(total):
        constant = (
            workload.target_top_name if index < MATCHING_SATISFIED else f"unmatched_{index}"
        )
        specs.append(
            TriggerSpec(
                name=f"t{index}",
                event=XmlTriggerEvent.UPDATE,
                view=workload.parameters.view_name,
                path=(top,),
                condition=f"OLD_NODE/@name = '{constant}'",
                action_name="collect",
                action_args=("NEW_NODE",),
            )
        )
    return specs


def matching_counters(total: int, updates: int = 20) -> dict:
    workload = HierarchyWorkload(MATCHING_DATABASE)
    database = workload.build_database()
    service = ActiveViewService(database, ExecutionMode.GROUPED_AGG)
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    service.register_triggers_bulk(matching_population(workload, total))
    for statement in workload.update_statements(updates, database):
        service.execute(statement)
    report = service.evaluation_report()
    counters = {
        key: report[key]
        for key in ("matching_probes", "matching_candidate_rows", "matching_fallbacks")
    }
    counters["fired"] = len(service.fired)
    return counters


def test_matching_reads_the_same_rows_at_ten_times_the_population():
    small = matching_counters(1_000)
    assert small == {
        "matching_probes": 20,
        "matching_candidate_rows": 20,
        "matching_fallbacks": 0,
        "fired": 20 * MATCHING_SATISFIED,
    }
    assert matching_counters(10_000) == small


#: The Figure 17 default shape (depth 2, fanout 32, 20 satisfied triggers)
#: at 50 triggers, on a small database.
FIGURE17_SHAPE = WorkloadParameters(
    depth=2, leaf_tuples=1_024, fanout=32, num_triggers=50, satisfied_triggers=20, seed=42
)


@pytest.fixture
def plan_executes(monkeypatch):
    """Count :meth:`PhysicalPlan.execute` calls; returns the counter."""
    from repro.xqgm.physical import PhysicalPlan

    counter = {"executes": 0}
    original = PhysicalPlan.execute

    def counting_execute(self, context):
        counter["executes"] += 1
        return original(self, context)

    monkeypatch.setattr(PhysicalPlan, "execute", counting_execute)
    return counter


@pytest.mark.parametrize("mode", [ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG])
@pytest.mark.parametrize("statements", [1, 5, 20])
def test_a_batch_executes_each_plan_once(plan_executes, mode, statements):
    harness = ExperimentHarness(FIGURE17_SHAPE)

    batched = harness.build_setup(FIGURE17_SHAPE, mode)
    pool = batched.workload.update_statements(statements, batched.database)
    plan_executes["executes"] = 0
    batched.service.execute_batch(pool)
    assert plan_executes["executes"] == 1
    assert batched.fired_count == FIGURE17_SHAPE.effective_satisfied

    looped = harness.build_setup(FIGURE17_SHAPE, mode)
    pool = looped.workload.update_statements(statements, looped.database)
    plan_executes["executes"] = 0
    for statement in pool:
        looped.run_statement(statement)
    assert plan_executes["executes"] == statements
    assert looped.fired_count == statements * FIGURE17_SHAPE.effective_satisfied
    assert looped.database.snapshot() == batched.database.snapshot()


@pytest.mark.parametrize(
    "mode, per_trigger",
    [
        (ExecutionMode.UNGROUPED, True),
        (ExecutionMode.GROUPED, False),
        (ExecutionMode.GROUPED_AGG, False),
    ],
)
@pytest.mark.parametrize("triggers", [4, 40])
def test_sqlite_runs_one_statement_per_group(mode, per_trigger, triggers):
    updates = 10
    parameters = WorkloadParameters(
        depth=2, leaf_tuples=256, fanout=32, num_triggers=triggers,
        satisfied_triggers=4, seed=42,
    )
    setup = ExperimentHarness(parameters).build_setup(parameters, mode, backend="sqlite")
    for statement in setup.workload.update_statements(updates, setup.database):
        setup.run_statement(statement)
    report = setup.service.evaluation_report()
    assert report["backend_statements"] == updates * (triggers if per_trigger else 1)
    assert setup.fired_count == updates * 4


#: ``(rows_table, index_probes)`` of one leaf UPDATE under ``/topelem``:
#: depth -> {compensated: counts}.  These are the counts of the translation
#: the benchmark's triggers use; pushing keys into nested paths leaves them
#: exactly as they were.
TOP_LEVEL_READS = {
    3: {False: (514, 12), True: (516, 10)},
    4: {False: (1_538, 21), True: (1_540, 17)},
}


@pytest.mark.parametrize("depth", [3, 4])
def test_nested_paths_read_like_the_top_level(depth):
    workload = HierarchyWorkload(
        WorkloadParameters(
            depth=depth, leaf_tuples=4_096, fanout=16, num_triggers=1,
            satisfied_triggers=1, seed=1,
        )
    )
    database = workload.build_database()
    view = workload.build_view()
    plans = {}
    for compensate in (False, True):  # GROUPED, GROUPED-AGG
        options = PushdownOptions(
            compensate_old_aggregates=compensate,
            old_node_requirement=OldNodeRequirement.NONE,
        )
        for level in range(depth):
            path = [workload.level_element(i) for i in range(level + 1)]
            translation = translate_path(
                view.path_graph(path, database), TriggerEvent.UPDATE, database, options
            )["leaf"]
            plans[compensate, level] = translation.physical_plan

    result = database.execute(
        UpdateStatement("leaf", {"price": 1_234.5}, keys=[(7,)]), fire_triggers=False
    )
    trigger_context = TriggerContext(
        database, "leaf", TriggerEvent.UPDATE, result.inserted, result.deleted
    )
    reads = {}
    for key, plan in plans.items():
        context = EvaluationContext(database, trigger_context, collect_stats=True)
        assert len(plan.execute(context)) == 1
        reads[key] = (context.stats["rows_table"], context.stats.get("index_probes", 0))

    for compensate in (False, True):
        assert reads[compensate, 0] == TOP_LEVEL_READS[depth][compensate]
        for level in range(1, depth):
            assert reads[compensate, level][0] <= 2 * reads[compensate, 0][0], (level, reads)
