"""Unit tests for the compiled physical engine (:mod:`repro.xqgm.physical`).

Every operator kind and expression form is compiled and compared against the
interpreted evaluator (the oracle) on the Figure 2 database — including
output row *order*, which the physical engine preserves bit-for-bit.  The
edge cases a randomized workload is unlikely to hold still on are pinned
too: NULL, NaN, empty and single-row inputs through predicates, projections
and aggregates, selects that keep nothing, empty groups, and every kind of
child value an element constructor meets (against
``ElementConstructor.evaluate``, errors included).  The
volatility classification and the statement-scoped sharing of compiled
nodes close the file; randomized end-to-end equivalence lives in
``tests/property/test_property_compiled_equivalence.py``.
"""

import math

import pytest

from repro.errors import EvaluationError, XmlError
from repro.relational import TriggerEvent
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.relational.triggers import TriggerContext
from repro.xmlmodel import serialize
from repro.xmlmodel.node import Attribute, Document, Element, Fragment, Text, XmlNode
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
from repro.xqgm.physical import PlanCompiler

from tests.conftest import build_paper_database


@pytest.fixture
def db():
    return build_paper_database()


def vendor_table(db, variant=TableVariant.CURRENT):
    return TableOp("vendor", "V", db.schema("vendor").column_names, variant)


def product_table(db):
    return TableOp("product", "P", db.schema("product").column_names)


def nan_safe(rows):
    """NaN never equals itself; a NaN computed twice must still compare equal."""
    return [
        {k: "NaN" if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
        for row in rows
    ]


def assert_equivalent(op, db, context=None, **context_kwargs):
    """Compiled output must equal interpreted output, including row order."""
    interpreted = evaluate(op, context or EvaluationContext(db, **context_kwargs))
    plan = compile_plan(op, db)
    compiled = plan.execute_mappings(context or EvaluationContext(db, **context_kwargs))
    assert nan_safe(compiled) == nan_safe(interpreted)
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


#: Edge-case inputs fed through a constants table: the compiled closures and
#: the interpreter must agree on each of them, row by row.
EDGE_ROWS = {
    "empty": [],
    "single": [(3, 4)],
    "nulls": [(None, 1), (2, None), (None, None), (5, 5)],
    "nan": [(float("nan"), 1.0), (2.0, float("nan")), (1.0, 1.0)],
    "plain": [(1, 2), (5, 5), (9, 0)],
}

EDGE_EXPRESSIONS = [
    ColumnRef("a"),
    Constant(7),
    Comparison("=", ColumnRef("a"), ColumnRef("b")),
    Comparison("<", ColumnRef("a"), Constant(10)),
    Comparison(">=", ColumnRef("a"), ColumnRef("b")),
    Arithmetic("+", ColumnRef("a"), ColumnRef("b")),
    Arithmetic("*", ColumnRef("a"), Constant(3)),
    BooleanExpr("and", (
        Comparison(">", ColumnRef("a"), Constant(0)),
        Comparison("<", ColumnRef("b"), Constant(100)),
    )),
    BooleanExpr("not", (IsNull(ColumnRef("a")),)),
    IsNull(ColumnRef("b")),
    TextConstructor(ColumnRef("a")),
    ElementConstructor("item", children=(ColumnRef("a"),)),
]

EDGE_AGGREGATES = [
    AggregateSpec("rows", "count"),
    AggregateSpec("n", "count", ColumnRef("a")),
    AggregateSpec("total", "sum", ColumnRef("a")),
    AggregateSpec("lo", "min", ColumnRef("a")),
    AggregateSpec("hi", "max", ColumnRef("b")),
    AggregateSpec("mean", "avg", ColumnRef("b")),
    AggregateSpec("frag", "xmlfrag", ColumnRef("b")),
]


#: Child values an element constructor may meet: every case of
#: ``Element.append`` (NULL, fragments spliced, atoms as text, nodes as is).
EDGE_CHILDREN = {
    "null": None,
    "empty_fragment": Fragment(),
    "single_fragment": Fragment([Element("x", {"i": 1})]),
    "nested_fragment": Fragment([Fragment([Element("x"), "t"]), Fragment(), Text("u")]),
    "bool": True,
    "int": 7,
    "float": 2.0,
    "float_fraction": 2.5,
    "str": "s",
    "document": Document(Element("root", None, [Element("leaf")])),
    "element": Element("e", {"a": 1}, [Text("t")]),
}

#: Constructor shapes: unlabelled, labelled, mixed, and a repeated attribute
#: name (``set_attribute`` replaces it in place).
ELEMENT_SHAPES = {
    "unlabelled": ElementConstructor("out", children=(ColumnRef("v"),)),
    "labelled": ElementConstructor("out", children=(ColumnRef("v"),), child_labels=("w",)),
    "mixed": ElementConstructor(
        "out", (AttributeSpec("a", Constant(1)),),
        (ColumnRef("v"), Constant("k"), ColumnRef("v"), Constant(None)),
        ("w", None, None, "empty"),
    ),
    "repeated_attribute": ElementConstructor(
        "out",
        (AttributeSpec("a", Constant(1)), AttributeSpec("b", Constant(None)),
         AttributeSpec("a", Constant(3.5))),
        (ColumnRef("v"),),
    ),
}


def input_nodes(value):
    """The nodes a child value brings along (a result holds them as they are)."""
    return list(value.iter_descendants()) if isinstance(value, XmlNode) else []


def edge_input(rows_key):
    """``(constants scan, context keywords binding it)`` over ``EDGE_ROWS[rows_key]``."""
    scan = ConstantsOp("edge", ["g", "a", "b"])
    rows = [{"g": i % 2, "a": a, "b": b} for i, (a, b) in enumerate(EDGE_ROWS[rows_key])]
    return scan, {"constants_tables": {"edge": rows}}


class TestEdgeInputs:
    @pytest.mark.parametrize("rows_key", sorted(EDGE_ROWS))
    @pytest.mark.parametrize(
        "expression", EDGE_EXPRESSIONS, ids=lambda e: type(e).__name__ + repr(e)[:30]
    )
    def test_projected_expressions(self, db, expression, rows_key):
        scan, context = edge_input(rows_key)
        _, rows = assert_equivalent(ProjectOp(scan, [("out", expression)]), db, **context)
        assert len(rows) == len(EDGE_ROWS[rows_key])

    @pytest.mark.parametrize("rows_key", sorted(EDGE_ROWS))
    @pytest.mark.parametrize(
        "expression", EDGE_EXPRESSIONS, ids=lambda e: type(e).__name__ + repr(e)[:30]
    )
    def test_predicates_keep_null_and_nan_rows_out(self, db, expression, rows_key):
        """WHERE semantics: NULL/unknown keeps the row out, any other value
        counts by its truth."""
        scan, context = edge_input(rows_key)
        assert_equivalent(SelectOp(scan, expression), db, **context)

    def test_equality_predicate_null_is_false(self, db):
        scan, context = edge_input("nulls")
        _, rows = assert_equivalent(
            SelectOp(scan, Comparison("=", ColumnRef("a"), ColumnRef("b"))), db, **context
        )
        assert [(row["a"], row["b"]) for row in rows] == [(5, 5)]

    @pytest.mark.parametrize("rows_key", sorted(EDGE_ROWS))
    @pytest.mark.parametrize("grouping", [["g"], []], ids=["grouped", "global"])
    def test_aggregates(self, db, grouping, rows_key):
        scan, context = edge_input(rows_key)
        op = GroupByOp(scan, grouping, EDGE_AGGREGATES, order_within_group=["a"])
        _, rows = assert_equivalent(op, db, **context)
        if not EDGE_ROWS[rows_key] and grouping:
            assert rows == []  # no group at all
        elif not EDGE_ROWS[rows_key]:
            (row,) = rows  # the one global group, over nothing
            assert {k: v for k, v in row.items() if k != "frag"} == {
                "rows": 0, "n": 0, "total": None, "lo": None, "hi": None, "mean": None,
            }
            assert not list(row["frag"].items)

    def test_select_keeps_no_row(self, db):
        select = SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(10_000)))
        _, rows = assert_equivalent(select, db)
        assert rows == []

    def test_group_by_over_a_select_that_keeps_nothing(self, db):
        select = SelectOp(vendor_table(db), Comparison(">", ColumnRef("V.price"), Constant(10_000)))
        aggregates = [AggregateSpec("n", "count", ColumnRef("V.vid")),
                      AggregateSpec("total", "sum", ColumnRef("V.price"))]
        _, grouped = assert_equivalent(GroupByOp(select, ["V.pid"], aggregates), db)
        assert grouped == []
        _, overall = assert_equivalent(GroupByOp(select, [], aggregates), db)
        assert overall == [{"n": 0, "total": None}]

    def test_aggregates_over_a_null_column(self, db):
        db.execute(UpdateStatement("product", {"mfr": None}, where=lambda r: r["pid"] == "P1"))
        grouped = GroupByOp(
            product_table(db), ["P.pname"],
            [AggregateSpec("n", "count", ColumnRef("P.mfr")),
             AggregateSpec("first", "min", ColumnRef("P.mfr"))],
        )
        assert_equivalent(grouped, db)

    def test_join_on_a_condition_and_a_union(self, db):
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

    @pytest.mark.parametrize("value", sorted(EDGE_CHILDREN))
    @pytest.mark.parametrize("shape", sorted(ELEMENT_SHAPES))
    def test_element_constructor_matches_the_interpreter(self, shape, value):
        constructor, layout = ELEMENT_SHAPES[shape], {"v": 0}
        row = (EDGE_CHILDREN[value],)
        compiled = compile_expr(constructor, layout)
        expected = constructor.evaluate(SlotView(layout, row))
        first, second = compiled(row, None), compiled(row, None)
        assert first == second == expected
        assert serialize(first) == serialize(expected)
        # A fresh tree per call: apart from the input's own nodes, the two
        # results share nothing.
        given = {id(node) for node in input_nodes(row[0])}
        built = {id(node) for node in first.iter_descendants()} - given
        assert built and not built & {id(node) for node in second.iter_descendants()}

    def test_element_constructor_through_a_plan(self, db):
        scan = ConstantsOp("edge", ["v"])
        rows = [{"v": value} for value in EDGE_CHILDREN.values()]
        for constructor in ELEMENT_SHAPES.values():
            _, out = assert_equivalent(
                ProjectOp(scan, [("out", constructor)]), db,
                constants_tables={"edge": rows},
            )
            assert len(out) == len(rows)

    @pytest.mark.parametrize("case", [
        "attribute_child", "labelled_attribute_child", "empty_name", "empty_label",
        "empty_attribute_name",
    ])
    def test_element_constructor_errors_surface_when_called(self, case):
        """Compiling a malformed constructor succeeds; calling it raises the
        interpreter's ``XmlError``."""
        attribute_row = (Attribute("n", 1),)
        constructor, row = {
            "attribute_child": (ELEMENT_SHAPES["unlabelled"], attribute_row),
            "labelled_attribute_child": (ELEMENT_SHAPES["labelled"], attribute_row),
            "empty_name": (ElementConstructor("", children=(ColumnRef("v"),)), (1,)),
            "empty_label": (
                ElementConstructor("out", children=(ColumnRef("v"),), child_labels=("",)), (1,)
            ),
            "empty_attribute_name": (
                ElementConstructor("out", (AttributeSpec("", ColumnRef("v")),)), (1,)
            ),
        }[case]
        layout = {"v": 0}
        compiled = compile_expr(constructor, layout)
        with pytest.raises(XmlError):
            constructor.evaluate(SlotView(layout, row))
        with pytest.raises(XmlError):
            compiled(row, None)

    def test_single_row_input_joined(self, db):
        select = SelectOp(product_table(db), Comparison("=", ColumnRef("P.pid"), Constant("P2")))
        join = JoinOp(
            [select, vendor_table(db)],
            Comparison("=", ColumnRef("P.pid"), ColumnRef("V.pid")),
        )
        _, rows = assert_equivalent(join, db)
        assert len(rows) == 2


class TestVolatility:
    def test_volatile_classification(self, db):
        """Only constants tables and parameter bindings make a subtree
        volatile; base tables and transition tables alike are shareable."""
        for variant in (TableVariant.CURRENT, TableVariant.OLD, TableVariant.DELTA_INSERTED):
            grouped = GroupByOp(vendor_table(db, variant), ["V.pid"], [AggregateSpec("n", "count")])
            plan = compile_plan(grouped, db)
            assert not plan.root.volatile and plan.shareable
        parameterized = GroupByOp(
            SelectOp(vendor_table(db), Comparison("=", ColumnRef("V.pid"), Parameter("p"))),
            ["V.pid"], [AggregateSpec("n", "count")],
        )
        assert compile_plan(parameterized, db).root.volatile
        constants = ProjectOp(ConstantsOp("consts", ["c0"]), [("c", ColumnRef("c0"))])
        assert not compile_plan(constants, db).shareable

    def test_every_mutation_path_is_seen(self, db):
        """One plan, executed again after each commit path, reads the tables
        as they now stand — nothing computed earlier is served."""
        op = GroupByOp(vendor_table(db), ["V.pid"], [AggregateSpec("n", "count")])
        plan = compile_plan(op, db)

        def counts():
            rows = plan.execute_mappings(EvaluationContext(db))
            assert rows == evaluate(op, EvaluationContext(db))
            return {row["V.pid"]: row["n"] for row in rows}

        assert counts()["P1"] == 3
        # Per-statement DML.
        db.insert("vendor", {"vid": "Newegg", "pid": "P1", "price": 10.0})
        assert counts()["P1"] == 4
        # Batched execution.
        db.execute_many([
            InsertStatement("vendor", [{"vid": "Buy.com", "pid": "P1", "price": 11.0}]),
        ])
        assert counts()["P1"] == 5
        # Bulk load (bypasses triggers, still bumps versions).
        db.load_rows("vendor", [{"vid": "Walmart", "pid": "P1", "price": 12.0}])
        assert counts()["P1"] == 6
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
        assert counts()["P1"] == 5

    def test_dropped_and_recreated_table_cannot_alias(self, db):
        """A fresh Table's version stamp never matches a stale memo key."""
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

    def test_a_change_to_a_table_the_side_reads_recomputes_it(self, db):
        """DML issued mid-firing (a trigger action's own statement): the side
        is keyed with its tables' version stamps, so it is computed again over
        the changed table, while a write elsewhere leaves it shared."""
        side = self.side(db, TableVariant.CURRENT)
        compiler = PlanCompiler(db)
        compiler.share(side)
        plan = compiler.plan(side)

        def count(trigger_context):
            context = EvaluationContext(
                db, trigger_context, shared_results=trigger_context.evaluation_memo
            )
            rows = plan.execute(context)
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

    def test_update_root_is_shareable(self, db):
        """``NodesDiffer`` answers ``uses_parameters()``: the difference-check
        select at the root of an UPDATE translation is not volatile, so its
        sibling groups share its pairs."""
        from repro.core.pushdown import PushdownOptions, translate_path
        from repro.xqgm.views import catalog_view

        path_graph = catalog_view().path_graph("/product", db)
        translation = translate_path(
            path_graph, TriggerEvent.UPDATE, db, PushdownOptions(check_difference=True)
        )["vendor"]
        assert translation.checks_difference
        assert not translation.physical_plan.root.volatile
        assert translation.physical_plan.shareable

    def test_sibling_groups_receive_the_same_pair_nodes(self):
        """Two UNGROUPED trigger groups fired by one statement receive the
        same affected-pair node objects (the pushdown pairs memo), and the
        firing log still matches an interpreted twin."""
        from repro.core.service import ActiveViewService, ExecutionMode
        from repro.xmlmodel import serialize
        from repro.xqgm.views import catalog_view

        def build(use_compiled_plans):
            service = ActiveViewService(
                build_paper_database(), mode=ExecutionMode.UNGROUPED,
                use_compiled_plans=use_compiled_plans,
            )
            service.register_view(catalog_view())
            service.register_action("sink", lambda *args: None)
            for name in "AB":
                service.create_trigger(
                    f"CREATE TRIGGER {name} AFTER UPDATE ON view('catalog')/product "
                    "DO sink(NEW_NODE)"
                )
            service.execute(UpdateStatement(
                "vendor", {"price": 99.0},
                where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
            ))
            return service

        compiled, interpreted = build(True), build(False)
        normalize = lambda fired: sorted(
            (f.trigger, f.key, serialize(f.new_node)) for f in fired
        )
        assert normalize(compiled.fired) == normalize(interpreted.fired)
        by_trigger = {f.trigger: f for f in compiled.fired}
        assert by_trigger["A"].new_node is by_trigger["B"].new_node
        assert compiled.evaluation_report()["pairs_memo_hits"] >= 1
