"""Unit tests for the batch-oriented columnar engine (:mod:`repro.xqgm.columnar`).

The edge cases the randomized differential fuzzer is unlikely to hold still
on are pinned here: empty batches, a selection that masks every row, NULL
and NaN flowing through vectorized predicates and aggregates, and
single-row batches.  The vectorized expression layer is compared against
the row-compiled closures value-for-value; whole plans are compared against
the interpreted evaluator *and* the compiled row engine including output
row order.  The PR 7 support surface — ``Table.scan_positions`` /
``Table.indexed_rows``, the sorted index probe, result reuse (cross-statement
result cache, statement-shared nodes) and the pushdown layer's shared pairs
memo — is covered at the bottom.
"""

import math

import pytest

from repro.errors import SchemaError
from repro.relational.dml import UpdateStatement
from repro.xqgm import (
    AggregateSpec,
    ColumnBatch,
    ColumnRef,
    Comparison,
    Constant,
    EvaluationContext,
    GroupByOp,
    JoinOp,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    compile_columnar_plan,
    compile_plan,
    evaluate,
)
from repro.xqgm.columnar import _HASHED_SCAN
from repro.xqgm.expressions import (
    Arithmetic,
    BooleanExpr,
    ElementConstructor,
    IsNull,
    TextConstructor,
    compile_expr,
    compile_expr_columns,
    compile_predicate_columns,
)
from repro.xqgm.physical import CONTEXT, STABLE

from tests.conftest import build_paper_database


@pytest.fixture
def db():
    return build_paper_database()


def vendor_table(db, variant=TableVariant.CURRENT):
    return TableOp("vendor", "V", db.schema("vendor").column_names, variant)


def product_table(db):
    return TableOp("product", "P", db.schema("product").column_names)


def assert_equivalent(op, db, **context_kwargs):
    """Columnar output == compiled == interpreted, including row order."""
    interpreted = evaluate(op, EvaluationContext(db, **context_kwargs))
    compiled = compile_plan(op, db).execute_mappings(EvaluationContext(db, **context_kwargs))
    plan = compile_columnar_plan(op, db)
    columnar = plan.execute_mappings(EvaluationContext(db, **context_kwargs))
    assert columnar == compiled == interpreted
    return plan, columnar


# ---------------------------------------------------------------------------
# The vectorized expression layer vs the row-compiled closures
# ---------------------------------------------------------------------------


LAYOUT = {"a": 0, "b": 1}

EXPRESSIONS = [
    ColumnRef("a"),
    Constant(7),
    Comparison("=", ColumnRef("a"), ColumnRef("b")),
    Comparison("<", ColumnRef("a"), Constant(10)),
    Comparison(">=", ColumnRef("a"), ColumnRef("b")),
    Arithmetic("+", ColumnRef("a"), ColumnRef("b")),
    Arithmetic("*", ColumnRef("a"), Constant(3)),
    BooleanExpr("and", [
        Comparison(">", ColumnRef("a"), Constant(0)),
        Comparison("<", ColumnRef("b"), Constant(100)),
    ]),
    BooleanExpr("not", [IsNull(ColumnRef("a"))]),
    IsNull(ColumnRef("b")),
    TextConstructor(ColumnRef("a")),
    ElementConstructor("item", attributes=[], children=[ColumnRef("a")]),
]

ROWSETS = {
    "empty": [],
    "single": [(3, 4)],
    "nulls": [(None, 1), (2, None), (None, None), (5, 5)],
    "nan": [(float("nan"), 1.0), (2.0, float("nan")), (1.0, 1.0)],
    "plain": [(1, 2), (5, 5), (9, 0)],
}


def _same_value(left, right):
    if isinstance(left, float) and isinstance(right, float):
        return (math.isnan(left) and math.isnan(right)) or left == right
    if type(left) is not type(right):
        return left == right
    return repr(left) == repr(right)


@pytest.mark.parametrize("expression", EXPRESSIONS, ids=lambda e: type(e).__name__ + repr(e)[:30])
@pytest.mark.parametrize("rows_key", sorted(ROWSETS))
def test_vectorized_matches_row_compiled(expression, rows_key):
    """One vectorized evaluation == one row-closure call per row."""
    rows = ROWSETS[rows_key]
    columns = [list(column) for column in zip(*rows)] if rows else [[], []]
    vector = compile_expr_columns(expression, LAYOUT)(columns, len(rows), None)
    scalar = compile_expr(expression, LAYOUT)
    expected = [scalar(row, None) for row in rows]
    assert len(vector) == len(expected)
    for got, want in zip(vector, expected):
        assert _same_value(got, want), (got, want)


@pytest.mark.parametrize("rows_key", sorted(ROWSETS))
def test_predicate_mask_null_is_false(rows_key):
    """WHERE semantics: NULL/unknown comparisons keep the row out."""
    rows = ROWSETS[rows_key]
    columns = [list(column) for column in zip(*rows)] if rows else [[], []]
    predicate = Comparison("=", ColumnRef("a"), ColumnRef("b"))
    mask = compile_predicate_columns(predicate, LAYOUT)(columns, len(rows), None)
    assert mask == [row[0] is not None and row[1] is not None and row[0] == row[1]
                    for row in rows]


def test_element_constructor_empty_and_single_row():
    constructor = ElementConstructor("price", attributes=[], children=[ColumnRef("a")])
    fn = compile_expr_columns(constructor, LAYOUT)
    assert fn([[], []], 0, None) == []
    (node,) = fn([[41], [0]], 1, None)
    assert node.name == "price"
    assert node.string_value() == "41"


def test_element_constructor_memo_reuses_equal_rows():
    """Value-identical rows share one constructed element (see PR 7 notes)."""
    constructor = ElementConstructor("p", attributes=[], children=[ColumnRef("a")])
    fn = compile_expr_columns(constructor, LAYOUT)
    first = fn([[1, 1, 2], [0, 0, 0]], 3, None)
    assert first[0] is first[1] and first[0] is not first[2]
    second = fn([[1], [0]], 1, None)
    assert second[0] is first[0]


# ---------------------------------------------------------------------------
# ColumnBatch mechanics
# ---------------------------------------------------------------------------


class TestColumnBatch:
    def test_round_trip(self):
        rows = [(1, "x"), (2, "y"), (3, "z")]
        batch = ColumnBatch.from_rows(rows, 2)
        assert batch.to_rows() == rows
        assert len(batch) == 3

    def test_empty_and_zero_width(self):
        empty = ColumnBatch.from_rows([], 2)
        assert empty.to_rows() == [] and len(empty) == 0
        widthless = ColumnBatch.from_rows([(), ()], 0)
        assert widthless.to_rows() == [(), ()] and len(widthless) == 2

    def test_selection_is_lazy_and_memoized(self):
        base = ColumnBatch([[10, 20, 30, 40]], 4, sel=[3, 1])
        assert len(base) == 2
        dense = base.materialize()
        assert dense.to_rows() == [(40,), (20,)]
        assert base.materialize() is dense  # memoized
        assert base.columns[0] == [10, 20, 30, 40]  # source untouched

    def test_all_rows_masked(self):
        masked = ColumnBatch([[1, 2, 3]], 3, sel=[])
        assert len(masked) == 0
        assert masked.materialize().to_rows() == []


# ---------------------------------------------------------------------------
# Plan-level equivalence on the Figure 2 database (exact row order)
# ---------------------------------------------------------------------------


class TestPlanEquivalence:
    def test_scan_select_project(self, db):
        select = SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(110)))
        project = ProjectOp(select, [("vid", ColumnRef("V.vid")), ("price", ColumnRef("V.price"))])
        _, rows = assert_equivalent(project, db)
        assert rows and all(r["price"] > 110 for r in rows)

    def test_select_masks_every_row(self, db):
        select = SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(10_000)))
        _, rows = assert_equivalent(select, db)
        assert rows == []

    def test_group_by_over_empty_input(self, db):
        select = SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(10_000)))
        grouped = GroupByOp(
            select, ["V.pid"],
            [AggregateSpec("n", "count", ColumnRef("V.vid")),
             AggregateSpec("total", "sum", ColumnRef("V.price"))],
        )
        _, rows = assert_equivalent(grouped, db)
        assert rows == []

    def test_aggregates_with_nulls(self, db):
        db.execute(UpdateStatement(
            "product", {"mfr": None}, where=lambda r: r["pid"] == "P1"
        ))
        grouped = GroupByOp(
            product_table(db), ["P.pname"],
            [AggregateSpec("n", "count", ColumnRef("P.mfr")),
             AggregateSpec("first", "min", ColumnRef("P.mfr"))],
        )
        assert_equivalent(grouped, db)

    def test_join_and_union(self, db):
        join = JoinOp(
            [product_table(db), vendor_table(db)],
            Comparison("=", ColumnRef("P.pid"), ColumnRef("V.pid")),
        )
        _, rows = assert_equivalent(join, db)
        assert len(rows) == 7
        union = UnionOp([
            ProjectOp(product_table(db), [("id", ColumnRef("P.pid"))]),
            ProjectOp(vendor_table(db), [("id", ColumnRef("V.vid"))]),
        ])
        assert_equivalent(union, db)

    def test_single_row_batches(self, db):
        select = SelectOp(product_table(db), Comparison("=", ColumnRef("P.pid"), Constant("P2")))
        join = JoinOp(
            [select, vendor_table(db)],
            Comparison("=", ColumnRef("P.pid"), ColumnRef("V.pid")),
        )
        _, rows = assert_equivalent(join, db)
        assert len(rows) == 2


# ---------------------------------------------------------------------------
# PR 7 support surface
# ---------------------------------------------------------------------------


class TestTableSupport:
    def test_scan_positions_track_scan_order(self, db):
        table = db.table("vendor")
        positions = table.scan_positions()
        keys_in_scan_order = [table.schema.key_of(row) for row in table.rows()]
        assert [keys_in_scan_order[i] for i in
                (positions[k] for k in keys_in_scan_order)] == keys_in_scan_order
        assert table.scan_positions() is positions  # cached per version
        db.execute(UpdateStatement(
            "vendor", {"price": 1.0},
            where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
        ))
        refreshed = table.scan_positions()
        assert refreshed is not positions
        # update_where re-inserts: the updated row moved to the end.
        assert refreshed[("Amazon", "P1")] == len(refreshed) - 1

    def test_indexed_rows_pairs(self, db):
        table = db.table("vendor")
        pairs = table.indexed_rows(("pid",), ("P1",))
        assert sorted(key for key, _ in pairs) == [
            ("Amazon", "P1"), ("Bestbuy", "P1"), ("Circuitcity", "P1")
        ]
        for key, row in pairs:
            assert table.get(key) == row
        with pytest.raises(SchemaError):
            table.indexed_rows(("price",), (100.0,))


def test_sorted_probe_matches_row_engine_order(db):
    """A join probing a scan that is already in the memo must reproduce the
    row engines' hash-join order (they hash exactly in that situation)."""
    products = product_table(db)
    scan = vendor_table(db)
    join = JoinOp([products, scan], equi_pairs=[("P.pid", "V.pid")])
    # Both scans are shared: the first two union children materialize them
    # into the memo.  The join then drives off the smaller memoized side
    # (product) and probes the larger memoized vendor scan — exactly the
    # situation where the row engines fall back to a hash join and the
    # columnar engine answers from the table's index in hash order instead.
    graph = UnionOp([
        ProjectOp(products, [("pid", ColumnRef("P.pid"))]),
        ProjectOp(scan, [("pid", ColumnRef("V.pid"))]),
        ProjectOp(join, [("pid", ColumnRef("V.pid"))]),
    ])
    plan, _ = assert_equivalent(graph, db)
    memo: dict = {}
    plan.root.batch(EvaluationContext(db), memo)
    assert any(
        isinstance(key, tuple) and key and key[0] == _HASHED_SCAN for key in memo
    ), "the sorted probe never engaged for the shared scan"


def _in_firing(db, body):
    """Run ``body(trigger_context)`` inside one vendor UPDATE firing."""
    from repro.relational import TriggerEvent
    from repro.relational.triggers import StatementTrigger

    db.register_trigger(StatementTrigger(
        name="probe", table="vendor",
        events=frozenset({TriggerEvent.UPDATE}), body=body,
    ))
    try:
        db.execute(UpdateStatement(
            "vendor", lambda r: {"price": r["price"] + 1.0},
            where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
        ))
    finally:
        db.drop_trigger("probe")


class TestReuse:
    def test_stable_root_reused_until_a_table_version_moves(self, db):
        from repro.xqgm.physical import ResultCache

        top = GroupByOp(vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")])
        plan = compile_columnar_plan(top, db)
        assert plan.root.stability == STABLE and plan.root.cache_eligible
        cache = ResultCache()
        run = lambda: plan.execute_rows(EvaluationContext(db, result_cache=cache))
        first = run()
        assert run() == first and cache.stats()["hits"] == 1
        db.execute(UpdateStatement(
            "vendor", {"price": 2.0},
            where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
        ))
        assert run() == first  # counts unchanged, but recomputed:
        assert cache.stats()["invalidations"] == 1 and cache.stats()["hits"] == 1

    def test_context_results_never_enter_the_result_cache(self, db):
        from repro.xqgm.physical import ResultCache

        top = GroupByOp(
            vendor_table(db, TableVariant.OLD), ["V.pid"], [AggregateSpec("n", "count")]
        )
        plan = compile_columnar_plan(top, db)
        assert plan.root.stability == CONTEXT and not plan.root.cache_eligible
        cache = ResultCache()
        _in_firing(db, lambda trigger_context: plan.execute(
            EvaluationContext(db, trigger_context, result_cache=cache)
        ))
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0, "invalidations": 0}

    def test_shared_context_node_is_computed_once_per_statement(self, db):
        from repro.xqgm.columnar import ColumnarCompiler

        side = GroupByOp(
            vendor_table(db, TableVariant.OLD), ["V.pid"], [AggregateSpec("n", "count")]
        )
        compiler = ColumnarCompiler(db)
        compiler.share(side)
        plans = [
            compiler.plan(ProjectOp(side, [("pid", ColumnRef("V.pid"))])),
            compiler.plan(SelectOp(side, Comparison(">", ColumnRef("n"), Constant(0)))),
        ]
        assert all(plan.shareable for plan in plans)
        counts = []

        def fire(trigger_context):
            memo = trigger_context.evaluation_memo
            assert memo == {}  # a fresh statement starts with an empty memo
            for plan in plans:
                context = EvaluationContext(db, trigger_context, shared_results=memo)
                plan.execute(context)
                counts.append(
                    (context.shared_side_evaluations, context.shared_side_reuses)
                )
            # One entry: the side, keyed with its tables' version stamps.
            ((node, stamp),) = memo
            assert node is compiler.compile(side)
            assert stamp == (db.table("vendor").version_stamp,)
            assert isinstance(memo[node, stamp], ColumnBatch)

        _in_firing(db, fire)
        _in_firing(db, fire)  # the next statement computes the side again
        assert counts == [(1, 0), (0, 1), (1, 0), (0, 1)]

    def test_no_sharing_outside_a_firing(self, db):
        """Without a statement memo every execution computes (and nothing
        is retained anywhere): a shared node is not a cache."""
        from repro.xqgm.columnar import ColumnarCompiler

        side = GroupByOp(
            vendor_table(db, TableVariant.OLD), ["V.pid"], [AggregateSpec("n", "count")]
        )
        compiler = ColumnarCompiler(db)
        compiler.share(side)
        plan = compiler.plan(side)
        assert plan.root.stability == CONTEXT
        for _ in range(2):
            context = EvaluationContext(db)
            plan.execute(context)
            assert (context.shared_side_evaluations, context.shared_side_reuses) == (0, 0)
            assert context.columnar_batches > 0


def test_pairs_memo_shares_nodes_across_sibling_groups():
    """Two UNGROUPED trigger groups fired by one statement receive the same
    affected-pair node objects (the pushdown pairs memo), and the firing
    log still matches an interpreted twin."""
    from repro.core.service import ActiveViewService, ExecutionMode
    from repro.xmlmodel import serialize
    from repro.xqgm.views import catalog_view

    def build(use_columnar):
        database = build_paper_database()
        service = ActiveViewService(
            database, mode=ExecutionMode.UNGROUPED,
            use_compiled_plans=use_columnar, use_columnar=use_columnar,
        )
        service.register_view(catalog_view())
        service.register_action("sink", lambda *args: None)
        service.create_trigger(
            "CREATE TRIGGER A AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"
        )
        service.create_trigger(
            "CREATE TRIGGER B AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"
        )
        return database, service

    statement = UpdateStatement(
        "vendor", {"price": 99.0},
        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
    )
    _, columnar = build(True)
    columnar.execute(statement)
    _, interpreted = build(False)
    interpreted.execute(statement)

    normalize = lambda fired: sorted(
        (f.trigger, f.key, serialize(f.new_node)) for f in fired
    )
    assert normalize(columnar.fired) == normalize(interpreted.fired)
    by_trigger = {f.trigger: f for f in columnar.fired}
    assert by_trigger["A"].new_node is by_trigger["B"].new_node
    report = columnar.evaluation_report()
    assert report["columnar_fallbacks"] == 0
    assert report["columnar_firings"] >= 2
