"""Unit tests for the compiled physical engine (:mod:`repro.xqgm.physical`).

Every operator kind and expression form is compiled and compared against the
interpreted evaluator (the oracle) on the Figure 2 database — including
output row *order*, which the physical engine preserves bit-for-bit.  The
version-stamped result cache's retention and invalidation rules and the
statement-scoped sharing of compiled nodes are pinned here; randomized
end-to-end equivalence lives in
``tests/property/test_property_compiled_equivalence.py``.
"""

import pytest

from repro.errors import EvaluationError
from repro.relational import TriggerEvent
from repro.relational.dml import UpdateStatement
from repro.relational.triggers import TriggerContext
from repro.xqgm import (
    AggregateSpec,
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Constant,
    EvaluationContext,
    GroupByOp,
    IsNull,
    JoinKind,
    JoinOp,
    Parameter,
    ProjectOp,
    ResultCache,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    UnnestOp,
    compile_plan,
    evaluate,
)
from repro.xqgm.expressions import (
    AttributeSpec,
    ElementConstructor,
    SlotView,
    TextConstructor,
    compile_expr,
    compile_predicate,
    expression_uses_parameters,
)
from repro.xqgm.operators import ConstantsOp
from repro.xqgm.physical import CONTEXT, STABLE, VOLATILE, PlanCompiler

from tests.conftest import build_paper_database


@pytest.fixture
def db():
    return build_paper_database()


def vendor_table(db, variant=TableVariant.CURRENT):
    return TableOp("vendor", "V", db.schema("vendor").column_names, variant)


def product_table(db):
    return TableOp("product", "P", db.schema("product").column_names)


def assert_equivalent(op, db, context=None, **context_kwargs):
    """Compiled output must equal interpreted output, including row order."""
    interpreted = evaluate(op, context or EvaluationContext(db, **context_kwargs))
    plan = compile_plan(op, db)
    compiled = plan.execute_mappings(context or EvaluationContext(db, **context_kwargs))
    assert compiled == interpreted
    return plan, compiled


class TestOperatorEquivalence:
    def test_table_scan_zero_copy(self, db):
        plan, rows = assert_equivalent(vendor_table(db), db)
        assert len(rows) == 7
        # Scans whose column list matches the schema hand out stored tuples.
        assert plan.root.passthrough

    def test_projected_scan(self, db):
        op = TableOp("vendor", "V", ["price", "vid"])
        plan, rows = assert_equivalent(op, db)
        assert not plan.root.passthrough
        assert list(rows[0]) == ["V.price", "V.vid"]

    def test_select_and_project(self, db):
        op = ProjectOp(
            SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(100))),
            [("cheap", Comparison("<", ColumnRef("V.price"), Constant(200))),
             ("vid", ColumnRef("V.vid"))],
        )
        assert_equivalent(op, db)

    def test_inner_join_and_condition(self, db):
        op = JoinOp(
            [product_table(db), vendor_table(db)],
            equi_pairs=[("V.pid", "P.pid")],
            condition=Comparison(">", ColumnRef("V.price"), Constant(100)),
        )
        assert_equivalent(op, db)

    def test_three_way_join(self, db):
        other = TableOp("vendor", "W", db.schema("vendor").column_names)
        op = JoinOp(
            [vendor_table(db), product_table(db), other],
            equi_pairs=[("V.pid", "P.pid"), ("W.pid", "P.pid")],
        )
        assert_equivalent(op, db)

    def test_cross_product(self, db):
        op = JoinOp([product_table(db), vendor_table(db)])
        assert_equivalent(op, db)

    def test_anti_join(self, db):
        op = JoinOp(
            [product_table(db), vendor_table(db)],
            equi_pairs=[("P.pid", "V.pid")],
            kind=JoinKind.ANTI,
        )
        assert_equivalent(op, db)

    def test_left_outer_join_with_condition(self, db):
        op = JoinOp(
            [product_table(db), vendor_table(db)],
            equi_pairs=[("P.pid", "V.pid")],
            condition=Comparison(">", ColumnRef("V.price"), Constant(1000)),
            kind=JoinKind.LEFT_OUTER,
        )
        assert_equivalent(op, db)

    def test_groupby_aggregates(self, db):
        op = GroupByOp(
            vendor_table(db),
            ["V.pid"],
            [
                AggregateSpec("n", "count"),
                AggregateSpec("total", "sum", ColumnRef("V.price")),
                AggregateSpec("lo", "min", ColumnRef("V.price")),
                AggregateSpec("hi", "max", ColumnRef("V.price")),
                AggregateSpec("mean", "avg", ColumnRef("V.price")),
            ],
            order_within_group=["V.vid"],
        )
        assert_equivalent(op, db)

    def test_groupby_xmlfrag_global_group(self, db):
        element = ElementConstructor(
            "v", (AttributeSpec("id", ColumnRef("V.vid")),),
            (TextConstructor(ColumnRef("V.price")),),
        )
        op = GroupByOp(
            ProjectOp(vendor_table(db), [("node", element), ("V.vid", ColumnRef("V.vid"))]),
            [],
            [AggregateSpec("frag", "xmlfrag", ColumnRef("node"))],
            order_within_group=["V.vid"],
        )
        assert_equivalent(op, db)

    def test_union_distinct_and_all(self, db):
        left = ProjectOp(vendor_table(db), [("pid", ColumnRef("V.pid"))])
        right = ProjectOp(product_table(db), [("id", ColumnRef("P.pid"))])
        for keep_all in (False, True):
            op = UnionOp(
                [left, right],
                columns=["pid"],
                mappings=[None, {"pid": "id"}],
                all=keep_all,
            )
            assert_equivalent(op, db)

    def test_unnest(self, db):
        op = UnnestOp(
            ProjectOp(vendor_table(db), [("items", ColumnRef("V.pid"))]),
            "items", "item", ordinal_column="ordinal",
        )
        assert_equivalent(op, db)

    def test_constants_table(self, db):
        op = ConstantsOp("consts", ["c0", "c1"])
        rows = [{"c0": 1, "c1": "a"}, {"c0": 2, "c1": "b"}]
        context = EvaluationContext(db, constants_tables={"consts": rows})
        assert_equivalent(op, db, context=context)

    def test_parameters(self, db):
        op = SelectOp(
            vendor_table(db), Comparison("=", ColumnRef("V.pid"), Parameter("pid"))
        )
        context = EvaluationContext(db, parameters={"pid": "P1"})
        assert_equivalent(op, db, context=context)

    def test_shared_subgraph_memoized_once(self, db):
        shared = GroupByOp(
            vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")]
        )
        left = ProjectOp(shared, [("V.pid", ColumnRef("V.pid")), ("n", ColumnRef("n"))])
        op = JoinOp([left, shared], equi_pairs=[("V.pid", "V.pid")])
        # Well-formedness aside, the point is: one logical node, one physical
        # node, one evaluation per execution.
        plan = compile_plan(op, db)
        context = EvaluationContext(db, collect_stats=True)
        plan.execute(context)
        interpreted_context = EvaluationContext(db, collect_stats=True)
        evaluate(op, interpreted_context)
        assert context.stats == interpreted_context.stats

    def test_delta_variants_with_trigger_context(self, db):
        statement = UpdateStatement(
            "vendor", {"price": 999.0}, where=lambda r: r["pid"] == "P1"
        )
        result = db.execute(statement, fire_triggers=False)
        trigger_context = TriggerContext(
            db, "vendor", TriggerEvent.UPDATE, result.inserted, result.deleted
        )
        for variant in (
            TableVariant.OLD,
            TableVariant.DELTA_INSERTED,
            TableVariant.DELTA_DELETED,
            TableVariant.PRUNED_INSERTED,
            TableVariant.PRUNED_DELETED,
        ):
            context = EvaluationContext(db, trigger_context)
            assert_equivalent(vendor_table(db, variant), db, context=context)

    def test_empty_transition_tables(self, db):
        """A no-op statement yields empty pruned transitions, not errors."""
        statement = UpdateStatement(
            "vendor", {"price": 150.0},
            where=lambda r: r["vid"] == "Circuitcity" and r["pid"] == "P1",
        )
        db.execute(statement, fire_triggers=False)  # make price already 150
        result = db.execute(statement, fire_triggers=False)
        trigger_context = TriggerContext(
            db, "vendor", TriggerEvent.UPDATE, result.inserted, result.deleted
        )
        for variant in (TableVariant.PRUNED_INSERTED, TableVariant.PRUNED_DELETED):
            context = EvaluationContext(db, trigger_context)
            plan, rows = assert_equivalent(
                vendor_table(db, variant), db, context=context
            )
            assert rows == []


class TestCompileExpr:
    LAYOUT = {"a": 0, "b": 1}

    def run(self, expression, values, parameters=None):
        compiled = compile_expr(expression, self.LAYOUT)
        interpreted = expression.evaluate(
            SlotView(self.LAYOUT, values), parameters
        )
        assert compiled(values, parameters) == interpreted
        return compiled(values, parameters)

    def test_arith_boolean_null_semantics(self):
        a, b = ColumnRef("a"), ColumnRef("b")
        assert self.run(Arithmetic("+", a, b), (2, 3)) == 5
        assert self.run(Arithmetic("*", a, b), (None, 3)) is None
        assert self.run(Comparison("<", a, b), (2, None)) is None
        assert self.run(BooleanExpr("and", (Comparison("<", a, b), Constant(True))), (1, 2))
        assert self.run(BooleanExpr("not", (Comparison("<", a, b),)), (1, 2)) is False
        assert self.run(IsNull(a), (None, 1)) is True
        assert self.run(IsNull(a, negate=True), (None, 1)) is False

    def test_missing_column_raises_at_call_time(self):
        compiled = compile_expr(ColumnRef("missing"), self.LAYOUT)
        with pytest.raises(EvaluationError):
            compiled((1, 2), None)

    def test_unbound_parameter(self):
        compiled = compile_expr(Parameter("p"), self.LAYOUT)
        with pytest.raises(EvaluationError):
            compiled((1, 2), None)
        assert compiled((1, 2), {"p": 9}) == 9

    def test_predicate_where_semantics(self):
        predicate = compile_predicate(Comparison("<", ColumnRef("a"), ColumnRef("b")),
                                      self.LAYOUT)
        assert predicate((1, 2), None) is True
        assert predicate((1, None), None) is False  # NULL counts as false

    def test_uses_parameters_detection(self):
        assert expression_uses_parameters(Parameter("x"))
        assert not expression_uses_parameters(
            Arithmetic("+", ColumnRef("a"), Constant(1))
        )
        assert expression_uses_parameters(
            BooleanExpr("and", (Constant(True), IsNull(Parameter("x"))))
        )

        class Custom:  # unknown expression types are conservatively volatile
            pass

        assert expression_uses_parameters(Custom())


class TestResultCache:
    def make_plan_and_context(self, db):
        op = GroupByOp(vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")])
        top = ProjectOp(op, [("V.pid", ColumnRef("V.pid")), ("n", ColumnRef("n"))])
        plan = compile_plan(top, db)
        return plan

    def test_stability_classification(self, db):
        current = GroupByOp(vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")])
        assert compile_plan(current, db).root.stability == STABLE
        delta = GroupByOp(
            vendor_table(db, TableVariant.DELTA_INSERTED), ["V.pid"],
            [AggregateSpec("n", "count")],
        )
        assert compile_plan(delta, db).root.stability == CONTEXT
        parameterized = GroupByOp(
            SelectOp(vendor_table(db), Comparison("=", ColumnRef("V.pid"), Parameter("p"))),
            ["V.pid"], [AggregateSpec("n", "count")],
        )
        assert compile_plan(parameterized, db).root.stability == VOLATILE

    def test_stable_result_retained_and_served(self, db):
        plan = self.make_plan_and_context(db)
        cache = ResultCache()

        def execute():
            context = EvaluationContext(db, result_cache=cache)
            return plan.execute(context)

        first = execute()   # misses: the projection and the group-by below it
        assert cache.stats()["hits"] == 0 and cache.stats()["entries"] == 2
        second = execute()  # a hit at the root: nothing below is consulted
        third = execute()
        assert first == second == third
        assert cache.stats()["hits"] == 2 and cache.stats()["misses"] == 2

    def test_context_results_stay_out_of_the_cache(self, db):
        """Delta-dependent results are statement-scoped: never cross-statement."""
        delta = GroupByOp(
            vendor_table(db, TableVariant.OLD), ["V.pid"], [AggregateSpec("n", "count")]
        )
        plan = compile_plan(delta, db)
        assert plan.root.stability == CONTEXT and not plan.root.cache_eligible
        cache = ResultCache()
        plan.execute(EvaluationContext(db, result_cache=cache))
        plan.execute(EvaluationContext(db, result_cache=cache))
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0, "invalidations": 0}

    def test_lowerings_of_different_shape_never_share_rows(self, db):
        """Translating for another base table may widen a shared logical
        subgraph in place (``ensure_columns``); a plan lowered before and one
        lowered after then read the same operator with different layouts and
        must not be served each other's rows."""
        from repro.xqgm.graph import ensure_columns

        grouped = GroupByOp(vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")])
        shared = ProjectOp(grouped, [("n", ColumnRef("n"))])
        narrow = compile_plan(shared, db)
        ensure_columns(shared, ["V.pid"])
        wide = compile_plan(shared, db)
        assert narrow.layout.columns == ("n",) and wide.layout.columns == ("n", "V.pid")
        assert narrow.root.logical is wide.root.logical

        cache = ResultCache()
        run = lambda plan: plan.execute(EvaluationContext(db, result_cache=cache))
        for _ in range(2):
            assert sorted(run(narrow)) == [(2,), (2,), (3,)]
            assert sorted(run(wide)) == [(2, "P2"), (2, "P3"), (3, "P1")]
        # ... while equal shapes of one logical node do share (the group-by).
        assert cache.stats()["hits"] >= 2

    def test_every_mutation_path_invalidates(self, db):
        plan = self.make_plan_and_context(db)
        cache = ResultCache()

        def counts():
            context = EvaluationContext(db, result_cache=cache)
            return {row[0]: row[1] for row in plan.execute(context)}

        for _ in range(3):
            counts()  # warm to the hit state
        assert cache.stats()["hits"] > 0

        # Per-statement DML.
        db.insert("vendor", {"vid": "Newegg", "pid": "P1", "price": 10.0})
        assert counts()["P1"] == 4
        # Batched execution.
        db.execute_many([UpdateStatement(
            "vendor", {"price": 11.0},
            where=lambda r: r["vid"] == "Newegg" and r["pid"] == "P1",
        ), ])
        for _ in range(2):
            counts()
        # Bulk load (bypasses triggers, still bumps versions).
        db.load_rows("vendor", [{"vid": "Walmart", "pid": "P1", "price": 12.0}])
        assert counts()["P1"] == 5
        # Recovery replay writes straight into table storage.
        from repro.persist.recovery import replay_record

        replay_record(db, {
            "kind": "apply",
            "deltas": [{
                "table": "vendor", "event": "DELETE",
                "inserted": [],
                "deleted": [list(db.table("vendor").get(("Walmart", "P1")))],
            }],
        })
        assert counts()["P1"] == 4
        assert cache.stats()["invalidations"] >= 4

    def test_dropped_and_recreated_table_cannot_alias(self, db):
        """A fresh Table's version stamp never matches a stale entry."""
        table = db.table("vendor")
        first_stamp = table.version_stamp
        rows = table.mappings()
        schema = table.schema
        db.drop_table("vendor")
        db.create_table(schema)
        db.load_rows("vendor", rows)
        recreated = db.table("vendor")
        assert recreated.version_stamp != first_stamp
        assert recreated.version_stamp[0] != first_stamp[0]

    def test_bounded_size(self, db):
        cache = ResultCache(max_entries=2)
        for node_id in range(5):
            cache.lookup(node_id, (1,))
            cache.store(node_id, (1,), [])
        assert len(cache) <= 2


class TestStatementSharing:
    """Nodes registered through ``PlanCompiler.share`` live in the statement's
    evaluation memo: computed by the first plan that needs them, read back by
    every later plan execution of the same statement, gone with it."""

    def side(self, db, variant=TableVariant.OLD):
        return GroupByOp(vendor_table(db, variant), ["V.pid"], [AggregateSpec("n", "count")])

    def fire(self, db, body):
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

    def test_plans_of_one_compiler_share_the_compiled_node(self, db):
        side = self.side(db)
        compiler = PlanCompiler(db)
        compiler.share(side)
        first = compiler.plan(ProjectOp(side, [("pid", ColumnRef("V.pid"))]))
        second = compiler.plan(SelectOp(side, Comparison(">", ColumnRef("n"), Constant(0))))
        assert first.root.input is second.root.input is compiler.compile(side)
        assert first.root.input.shared and not first.root.shared
        assert first.shareable and second.shareable

    def test_computed_once_per_statement_and_never_across(self, db):
        side = self.side(db)
        compiler = PlanCompiler(db)
        compiler.share(side)
        plans = [
            compiler.plan(ProjectOp(side, [("pid", ColumnRef("V.pid"))])),
            compiler.plan(SelectOp(side, Comparison(">", ColumnRef("n"), Constant(0)))),
        ]
        counts, memos = [], []

        def body(trigger_context):
            memo = trigger_context.evaluation_memo
            assert memo == {}  # fresh per statement
            memos.append(memo)
            for plan in plans:
                context = EvaluationContext(db, trigger_context, shared_results=memo)
                rows = plan.execute(context)
                assert rows == compile_plan(plan.root.logical, db).execute(
                    EvaluationContext(db, trigger_context)
                )
                counts.append(
                    (context.shared_side_evaluations, context.shared_side_reuses)
                )
            # One entry: the side, keyed with its tables' version stamps.
            assert list(memo) == [
                (compiler.compile(side), (db.table("vendor").version_stamp,))
            ]

        self.fire(db, body)
        self.fire(db, body)
        assert counts == [(1, 0), (0, 1), (1, 0), (0, 1)]
        assert memos[0] is not memos[1]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_a_change_to_a_table_the_side_reads_recomputes_it(self, db, columnar):
        """DML issued mid-firing (a trigger action's own statement): the side
        is keyed with its tables' version stamps, so it is computed again over
        the changed table, while a write elsewhere leaves it shared."""
        from repro.xqgm.columnar import ColumnarCompiler

        side = self.side(db, TableVariant.CURRENT)
        compiler = (ColumnarCompiler if columnar else PlanCompiler)(db)
        compiler.share(side)
        plan = compiler.plan(side)

        def count(trigger_context):
            context = EvaluationContext(
                db, trigger_context, shared_results=trigger_context.evaluation_memo
            )
            result = plan.execute(context)
            rows = result.to_rows() if columnar else result
            return dict(rows)["P1"], context.shared_side_evaluations, context.shared_side_reuses

        def body(trigger_context):
            assert count(trigger_context) == (3, 1, 0)
            db.insert("product", {"pid": "P9", "pname": "x", "mfr": "y"})  # not read
            assert count(trigger_context) == (3, 0, 1)
            db.insert("vendor", {"vid": "Newegg", "pid": "P1", "price": 1.0})
            assert count(trigger_context) == (4, 1, 0)
            assert count(trigger_context) == (4, 0, 1)
            assert len(trigger_context.evaluation_memo) == 2  # superseded rows stay

        self.fire(db, body)

    def test_interpreter_and_memo_free_contexts_do_not_share(self, db):
        side = self.side(db)
        compiler = PlanCompiler(db)
        compiler.share(side)
        plan = compiler.plan(side)

        def body(trigger_context):
            for _ in range(2):
                context = EvaluationContext(db, trigger_context)  # no shared_results
                plan.execute(context)
                assert context.shared_side_evaluations == context.shared_side_reuses == 0
            evaluate(side, EvaluationContext(
                db, trigger_context, shared_results=trigger_context.evaluation_memo
            ))
            assert trigger_context.evaluation_memo == {}

        self.fire(db, body)

    def test_volatile_nodes_are_never_shared(self, db):
        parameterized = SelectOp(
            vendor_table(db), Comparison("=", ColumnRef("V.pid"), Parameter("p"))
        )
        compiler = PlanCompiler(db)
        compiler.share(parameterized)
        plan = compiler.plan(parameterized)
        assert not plan.root.shared and not plan.shareable
        memo: dict = {}
        for pid, expected in (("P1", 3), ("P2", 2)):
            context = EvaluationContext(db, parameters={"p": pid}, shared_results=memo)
            assert len(plan.execute(context)) == expected
        assert memo == {}

    def test_update_root_has_the_same_stability_in_both_compilers(self, db):
        """``NodesDiffer`` answers ``uses_parameters()``: the difference-check
        select at the root of an UPDATE translation is CONTEXT for the row
        compiler exactly as for the columnar one (it used to be VOLATILE in
        the row engine only, which kept its sibling groups from sharing)."""
        from repro.core.pushdown import PushdownOptions, translate_path
        from repro.xqgm.views import catalog_view

        path_graph = catalog_view().path_graph("/product", db)
        translation = translate_path(
            path_graph, TriggerEvent.UPDATE, db, PushdownOptions(check_difference=True)
        )["vendor"]
        assert translation.checks_difference
        row_root = translation.physical_plan.root
        columnar_root = translation.columnar_plan.root
        assert row_root.stability == columnar_root.stability == CONTEXT
        assert translation.physical_plan.shareable and translation.columnar_plan.shareable
        for row_node, columnar_node in zip(
            _walk(row_root), _walk(columnar_root), strict=True
        ):
            assert row_node.logical is columnar_node.logical
            assert (row_node.stability, row_node.cache_eligible, row_node.shared) == (
                columnar_node.stability, columnar_node.cache_eligible, columnar_node.shared
            )


def _walk(node):
    """Pre-order traversal of a compiled plan (either engine)."""
    yield node
    children = getattr(node, "children", None)
    if children is None:
        children = [
            child for child in (
                getattr(node, "input", None), getattr(node, "left", None),
                getattr(node, "right", None),
            ) if child is not None
        ]
    for child in children:
        yield from _walk(child)
