"""Nothing a compiled plan computes outlives its statement.

A statement's evaluation memo (``TriggerContext.evaluation_memo``) is the one
place rows are kept between plan executions: the shared OLD/NEW node sides
and each translation's pairs, keyed with the version stamps of the tables
they read.  Nothing is cached across statements, so a stamp is assembled
only to key that memo, and a row list an operator computed is reachable
after ``execute()`` only through the (dead) memo.

Pinned with program counters, in the style of ``test_lowering_once.py``, on
a GROUPED population over the nested ``/topelem/midelem1`` path — plans that
join the affected keys to the whole view graph, so they hold the most
subplans that read CURRENT tables only (a cross-statement result cache kept
nine of them per statement here):

* one leaf UPDATE calls ``version_stamp`` exactly once per shared-side memo
  lookup plus once per plan memo lookup;
* after ``execute()`` returns, every row list an operator computed is a
  value of that statement's memo or already freed, and dropping the memo
  frees them all.
"""

from __future__ import annotations

import gc
import weakref

from repro.core import pushdown
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational import TriggerEvent
from repro.relational.dml import UpdateStatement
from repro.relational.triggers import StatementTrigger
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm import physical
from repro.xqgm.physical import PhysicalOp, PhysicalPlan

#: 6 top elements x 2 mid elements x 2 leaves; leaf 1 sits under ``L1_1``.
_PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)


class _Rows(list):
    """A row list that a weak reference can watch."""


class _CountingMemo(dict):
    """The statement memo, counting lookups by what they are keyed with."""

    def __init__(self) -> None:
        super().__init__()
        self.side_lookups = 0
        self.plan_lookups = 0

    def get(self, key, default=None):
        if isinstance(key[0], PhysicalOp):
            self.side_lookups += 1
        elif isinstance(key[0], PhysicalPlan):
            self.plan_lookups += 1
        return super().get(key, default)


def _nested_service():
    """Four equality triggers on ``/topelem/midelem1`` — one GROUPED group,
    two of its triggers on leaf 1's mid element — behind a probe that gives
    every leaf UPDATE a counting memo (registered first, so it fires first)."""
    workload = HierarchyWorkload(_PARAMETERS)
    database = workload.build_database()
    memos: list[_CountingMemo] = []

    def install(context) -> None:
        context.evaluation_memo = _CountingMemo()
        memos.append(context.evaluation_memo)

    database.register_trigger(StatementTrigger(
        name="memo_probe", table="leaf", events=frozenset({TriggerEvent.UPDATE}), body=install,
    ))
    service = ActiveViewService(database, mode=ExecutionMode.GROUPED)
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    service.register_triggers_bulk([
        f"CREATE TRIGGER t{i} AFTER UPDATE ON view('{_PARAMETERS.view_name}')/topelem/midelem1 "
        f"WHERE OLD_NODE/@name = '{name}' DO collect(NEW_NODE)"
        for i, name in enumerate(["L1_1", "L1_1", "L1_2", "L1_3"])
    ])
    assert service.group_count() == 1
    return service, memos


def _leaf_update(step: int) -> UpdateStatement:
    return UpdateStatement("leaf", {"price": 1000.0 + step}, keys=[(1,)])


def _physical_classes():
    return [
        cls for cls in vars(physical).values()
        if isinstance(cls, type) and issubclass(cls, PhysicalOp) and cls is not PhysicalOp
    ]


def test_version_stamps_are_taken_only_to_key_the_statement_memo(monkeypatch):
    service, memos = _nested_service()
    service.execute(_leaf_update(0))
    stamps = []
    original = physical.version_stamp

    def counting(database, tables):
        stamps.append(tuple(tables))
        return original(database, tables)

    monkeypatch.setattr(physical, "version_stamp", counting)
    monkeypatch.setattr(pushdown, "version_stamp", counting)

    service.execute(_leaf_update(1))
    assert len(service.fired) == 4  # t0 and t1, twice
    memo = memos[-1]
    assert memo.side_lookups > 0 and memo.plan_lookups > 0
    assert len(stamps) == memo.side_lookups + memo.plan_lookups
    assert service.evaluation_report()["shared_side_evaluations"] > 0  # the compiled engine ran


def test_no_rows_outlive_the_statement_memo(monkeypatch):
    service, memos = _nested_service()
    service.execute(_leaf_update(0))
    computed: list[weakref.ref] = []
    for cls in _physical_classes():
        def watched(self, ctx, memo, _original=cls._compute):
            rows = _Rows(_original(self, ctx, memo))
            computed.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(cls, "_compute", watched)

    service.execute(_leaf_update(1))
    assert len(service.fired) == 4
    memo = memos.pop()
    held = {id(value) for value in memo.values()}
    alive = [ref() for ref in computed if ref() is not None]
    assert alive, "the memo holds the statement's shared sides"
    assert all(id(rows) in held for rows in alive), (
        f"{sum(id(rows) not in held for rows in alive)} row lists retained outside the memo"
    )
    del alive, memo
    gc.collect()
    assert all(ref() is None for ref in computed)
