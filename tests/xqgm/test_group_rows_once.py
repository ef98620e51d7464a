"""Each affected group's rows are joined and grouped once per statement.

GROUPED-AGG (Section 5, Figure 16) derives an affected group's pre-update
aggregates from its new-state ones.  The ``NEW_NODE`` side groups the same
rows for its nodes, so the compiled plan reads the compensation's new-state
aggregates off that group-by (:func:`repro.core.pushdown._new_state_reads`)
instead of joining and grouping the leaves a second time.  Pinned with
program counters, in the style of ``test_lowering_once.py``:

* ``fire_hot``-shaped (depth 2, 32 leaves per top): one leaf UPDATE feeds the
  32 leaf rows of its top element to compiled group-bys that aggregate, once
  (twice before: 64);
* ``fire_mixed_churn``-shaped (depth 3): the same for the mid level (16 leaf
  rows grouped, 24 before), and the top level, which reads the compensated
  mid level, is a plain group-by — 113 nodes per statement where the double
  grouping and a three-branch compensation of the top level took 118.
"""

from __future__ import annotations

from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm import physical
from repro.xqgm.physical import PhysicalOp


def _service(depth: int, fanout: int):
    parameters = WorkloadParameters(
        depth=depth, leaf_tuples=8 * fanout, fanout=fanout, num_triggers=1,
        satisfied_triggers=1, seed=3,
    )
    workload = HierarchyWorkload(parameters)
    service = ActiveViewService(workload.build_database())
    assert service.mode is ExecutionMode.GROUPED_AGG
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    service.register_triggers_bulk([
        f"CREATE TRIGGER t{i} AFTER UPDATE ON view('{parameters.view_name}')/topelem "
        f"WHERE OLD_NODE/@name = '{workload.top_name(1)}' DO collect(NEW_NODE)"
        for i in range(2)
    ])
    leaves = workload.leaf_ids_by_top()[1]
    service.execute(UpdateStatement("leaf", {"price": 1000.0}, keys=[(leaves[0],)]))
    return service, UpdateStatement("leaf", {"price": 1001.0}, keys=[(leaves[1],)])


def _count(monkeypatch, service, statement, leaf_key: str):
    """Nodes computed, and leaf rows entering group-bys that aggregate."""
    computed: list[PhysicalOp] = []
    grouped_leaf_rows = [0]
    for cls in vars(physical).values():
        if not (isinstance(cls, type) and issubclass(cls, PhysicalOp)) or cls is PhysicalOp:
            continue

        def counting(self, ctx, memo, _original=cls._compute):
            computed.append(self)
            out = _original(self, ctx, memo)
            if isinstance(self, physical.PGroupBy) and self.aggregates:
                if leaf_key in self.input.layout.index:
                    grouped_leaf_rows[0] += len(memo[self.input.logical_id])
            return out

        monkeypatch.setattr(cls, "_compute", counting)
    fired = len(service.fired)
    service.execute(statement)
    monkeypatch.undo()
    assert len(service.fired) == fired + 2
    assert service.evaluation_report()["compiled_plan_fallbacks"] == 0
    return computed, grouped_leaf_rows[0]


def test_hot_update_groups_its_leaves_once(monkeypatch):
    service, statement = _service(depth=2, fanout=32)
    computed, grouped_leaf_rows = _count(monkeypatch, service, statement, "L1.id")
    assert grouped_leaf_rows == 32  # 64 when the compensation grouped them again
    assert len(computed) == 67


def test_churn_shaped_update_groups_its_leaves_once(monkeypatch):
    service, statement = _service(depth=3, fanout=8)
    computed, grouped_leaf_rows = _count(monkeypatch, service, statement, "L2.id")
    # The NEW side's 8 (two mid elements of four leaves under the updated
    # top), then the ΔB and ∇B affected-key graphs' count of the updated
    # mid element's 4 leaves for its ``count >= 2`` predicate: 24 before.
    assert grouped_leaf_rows == 8 + 4 + 4
    assert len(computed) == 113  # 118 before
    assert sum(isinstance(node, physical.PGroupBy) for node in computed) == 23  # 25 before
