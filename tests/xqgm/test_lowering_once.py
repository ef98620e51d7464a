"""Lowering is where plan decisions are taken — once.

:class:`repro.xqgm.physical.PlanCompiler` hash-conses: one physical node per
distinct subplan *signature* (kind, own parameters, compiled inputs), so the
structural twins the translator's ``clone_graph`` / ``push_semijoin`` /
compensation copies leave behind are evaluated once per execution; and
:class:`~repro.xqgm.physical.PInnerJoin` keeps one *recipe* per input order,
so a statement re-derives no merge spec, condition closure or slot list.

Pinned with program counters (they repeat exactly, wall-clock ratios do not),
in the style of ``tests/core/test_hot_path_no_reparse.py``:

* on a ``fire_hot``-shaped GROUPED-AGG population one UPDATE computes each
  physical node at most once and 67 nodes in all (before hash-consing: 80,
  of which 23 joins; now 18);
* after one warm-up statement a stream of statements builds nothing inside
  joins;
* a graph without twins counts the same probes / hash joins / scans as the
  interpreter;
* an operator widened in place between two ``plan()`` calls of one compiler
  is lowered afresh, while a ``share()``d side keeps its first node.
"""

from __future__ import annotations

from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational import TriggerEvent
from repro.relational.dml import UpdateStatement
from repro.relational.triggers import TriggerContext
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm import (
    ColumnRef,
    EvaluationContext,
    JoinOp,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    evaluate,
)
from repro.xqgm import physical
from repro.xqgm.expressions import Comparison, Constant
from repro.xqgm.graph import clone_graph, ensure_columns
from repro.xqgm.physical import PhysicalOp, PlanCompiler, SlotLayout

from tests.conftest import build_paper_database

_PARAMETERS = WorkloadParameters(
    depth=2, leaf_tuples=64, fanout=8, num_triggers=1, satisfied_triggers=1, seed=3
)


def _hot_service():
    """``fire_hot`` in small: equality triggers on ``/topelem``, three of them
    on the hot element, GROUPED-AGG (the service default), leaf UPDATEs."""
    workload = HierarchyWorkload(_PARAMETERS)
    service = ActiveViewService(workload.build_database())
    assert service.mode is ExecutionMode.GROUPED_AGG
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    tops = [1, 1, 1, 2, 3, 4, 5, 6]
    service.register_triggers_bulk([
        f"CREATE TRIGGER t{i} AFTER UPDATE ON view('{_PARAMETERS.view_name}')/topelem "
        f"WHERE OLD_NODE/@name = '{workload.top_name(top)}' DO collect(NEW_NODE)"
        for i, top in enumerate(tops)
    ])
    leaves = workload.leaf_ids_by_top()[1]
    statements = (
        UpdateStatement("leaf", {"price": 1000.0 + step}, keys=[(leaves[step % len(leaves)],)])
        for step in range(10_000)
    )
    return service, statements


def _physical_classes():
    return [
        cls for cls in vars(physical).values()
        if isinstance(cls, type) and issubclass(cls, PhysicalOp) and cls is not PhysicalOp
    ]


def test_one_update_computes_each_distinct_subplan_once(monkeypatch):
    service, statements = _hot_service()
    service.execute(next(statements))
    computed: list[PhysicalOp] = []
    for cls in _physical_classes():
        def counting(self, ctx, memo, _original=cls._compute):
            computed.append(self)
            return _original(self, ctx, memo)

        monkeypatch.setattr(cls, "_compute", counting)

    service.execute(next(statements))
    assert len(service.fired) == 6  # three triggers on the hot element, twice
    assert len(computed) == len({id(node) for node in computed}), "a node computed twice"
    # 80 before hash-consing.  The affected-key subplans among these are
    # key-only since their graphs are pruned before the semi-join pushdown —
    # each cheaper, none building XML — and just as many (pruning after the
    # pushdown copied its shared key subplans: 72).  68 until the
    # compensation's new-state group-by became a projection of the NEW side's
    # (its join, leaf projection and group-by gone, one projection in their
    # place: 66), plus the projection dropping the compensation's hidden row
    # count: 67.
    assert len(computed) == 67
    assert sum(isinstance(node, physical.PInnerJoin) for node in computed) == 18  # was 23
    report = service.evaluation_report()
    assert report["compiled_plan_fallbacks"] == 0


def test_statement_stream_builds_nothing_inside_joins(monkeypatch):
    service, statements = _hot_service()
    service.execute(next(statements))  # warm-up: recipes for the orders in use

    counter = {"merge_specs": 0, "predicates": 0, "slots": 0, "recipes": 0}

    def count(name, original):
        def counting(*args, **kwargs):
            counter[name] += 1
            return original(*args, **kwargs)
        return counting

    monkeypatch.setattr(
        physical._MergeSpec, "__init__", count("merge_specs", physical._MergeSpec.__init__)
    )
    monkeypatch.setattr(
        physical, "compile_predicate", count("predicates", physical.compile_predicate)
    )
    monkeypatch.setattr(SlotLayout, "slots", count("slots", SlotLayout.slots))
    monkeypatch.setattr(
        physical.PInnerJoin, "_recipe", count("recipes", physical.PInnerJoin._recipe)
    )

    fired = len(service.fired)
    for _ in range(12):
        service.execute(next(statements))
    assert len(service.fired) == fired + 12 * 3
    assert counter == {"merge_specs": 0, "predicates": 0, "slots": 0, "recipes": 0}


def _vendor(db, variant=TableVariant.CURRENT, alias="V"):
    return TableOp("vendor", alias, db.schema("vendor").column_names, variant)


def test_twin_free_graph_counts_what_the_interpreter_counts():
    """Delta rows probing a base table through its primary key, then hash
    joined with a grouped side: no twins, so recipes alone must not move
    ``index_probes`` / ``hash_joins`` / ``table_scans``."""
    db = build_paper_database()
    result = db.execute(
        UpdateStatement("vendor", {"price": 999.0}, where=lambda r: r["pid"] == "P1"),
        fire_triggers=False,
    )
    trigger_context = TriggerContext(
        db, "vendor", TriggerEvent.UPDATE, result.inserted, result.deleted
    )
    delta = ProjectOp(
        _vendor(db, TableVariant.DELTA_INSERTED, "D"),
        [("D.vid", ColumnRef("D.vid")), ("D.pid", ColumnRef("D.pid"))],
    )
    product = TableOp("product", "P", db.schema("product").column_names)
    op = JoinOp(
        [_vendor(db), delta, product],
        equi_pairs=[("D.vid", "V.vid"), ("D.pid", "V.pid"), ("D.pid", "P.pid")],
    )
    interpreted = EvaluationContext(db, trigger_context, collect_stats=True)
    expected = evaluate(op, interpreted)
    compiled = EvaluationContext(db, trigger_context, collect_stats=True)
    assert PlanCompiler(db).plan(op).execute_mappings(compiled) == expected
    assert compiled.stats == interpreted.stats
    assert compiled.stats["index_probes"] == 6  # three delta rows, two probed tables


def test_twins_lower_to_one_node():
    db = build_paper_database()
    side = SelectOp(_vendor(db), Comparison(">", ColumnRef("V.price"), Constant(100)))
    twin = clone_graph(side)
    assert twin.id != side.id and twin.input.id != side.input.id
    compiler = PlanCompiler(db)
    assert compiler.compile(twin) is compiler.compile(side)
    other = SelectOp(_vendor(db), Comparison(">", ColumnRef("V.price"), Constant(200)))
    node = compiler.compile(other)
    assert node is not compiler.compile(side) and node.input is compiler.compile(side).input


def test_equal_but_different_literals_are_not_twins():
    """``1 == 1.0 == True`` in Python, but ``<a>1</a>`` is not ``<a>True</a>``."""
    db = build_paper_database()
    vendor = _vendor(db)
    compiler = PlanCompiler(db)
    nodes = {
        id(compiler.compile(ProjectOp(vendor, [("one", Constant(literal))])))
        for literal in (1, 1.0, True, "1", 1)
    }
    assert len(nodes) == 4
    # An unhashable literal gives its operator an identity signature.
    lists = [ProjectOp(vendor, [("items", Constant([1, 2]))]) for _ in range(2)]
    first, second = map(compiler.compile, lists)
    assert first is not second and first is compiler.compile(lists[0])
    assert first.input is second.input


def test_operator_widened_between_two_plans_is_lowered_afresh():
    """``ensure_columns`` widens a graph in place; a plan compiled afterwards
    by the same compiler must see the added column, and the plan compiled
    before keeps running on the narrower lowering."""
    db = build_paper_database()
    narrow = ProjectOp(_vendor(db), [("V.pid", ColumnRef("V.pid"))])
    filtered = SelectOp(narrow, Comparison("=", ColumnRef("V.pid"), Constant("P1")))
    compiler = PlanCompiler(db)
    before = compiler.plan(filtered)
    expected_before = evaluate(filtered, EvaluationContext(db))

    ensure_columns(filtered, ["V.price"])  # widens ``narrow`` below the select
    assert narrow.output_columns == ("V.pid", "V.price")
    top = ProjectOp(filtered, [("price", ColumnRef("V.price"))])
    after = compiler.plan(top)

    assert after.execute_mappings(EvaluationContext(db)) == evaluate(top, EvaluationContext(db))
    assert before.layout.columns == ("V.pid",)
    assert before.execute_mappings(EvaluationContext(db)) == expected_before
    assert compiler.compile(filtered) is after.root.input is not before.root
    assert after.root.input.logical_id != before.root.logical_id  # one memo key each


def test_shared_side_keeps_its_first_node_when_the_graph_below_is_widened():
    """Every plan over a ``share()``d side must read the one entry the
    statement's memo holds, so the side is lowered once, whatever a later
    translation adds below it for operators of its own."""
    db = build_paper_database()
    narrow = ProjectOp(_vendor(db), [("V.pid", ColumnRef("V.pid"))])
    side = SelectOp(narrow, Comparison("=", ColumnRef("V.pid"), Constant("P1")))
    compiler = PlanCompiler(db)
    compiler.share(side)
    first = compiler.plan(ProjectOp(side, [("pid", ColumnRef("V.pid"))]))
    ensure_columns(narrow, ["V.vid"])
    second = compiler.plan(ProjectOp(side, [("p", ColumnRef("V.pid"))]))
    assert first.root.input is second.root.input is compiler.compile(side)
    assert first.root.input.shared
    assert [row["p"] for row in second.execute_mappings(EvaluationContext(db))] == ["P1"] * 3
