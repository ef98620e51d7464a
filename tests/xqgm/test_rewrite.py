"""Unit tests for the pushdown rewrites: semi-joins, compensation, pruning."""

import pytest

from repro.relational import TriggerEvent
from repro.relational.triggers import TriggerContext
from repro.xqgm import (
    AggregateSpec,
    ColumnRef,
    Comparison,
    Constant,
    EvaluationContext,
    GroupByOp,
    JoinOp,
    SelectOp,
    TableOp,
    TableVariant,
    evaluate,
)
from repro.xqgm.rewrite import compensate_old_aggregates, prune_columns, push_semijoin
from repro.xqgm.views import catalog_view
from repro.xqgm.graph import replace_table_variant, walk

from tests.conftest import build_paper_database


def _product_count_graph(db):
    """GroupBy counting vendors per product name (the catalog core)."""
    p = TableOp("product", "P", db.schema("product").column_names)
    v = TableOp("vendor", "V", db.schema("vendor").column_names)
    join = JoinOp([p, v], equi_pairs=[("V.pid", "P.pid")])
    return GroupByOp(join, ["P.pname"], [AggregateSpec("n", "count", ColumnRef("V.vid"))])


def _keys_op(values):
    """A constants-style operator holding affected keys for tests."""
    from repro.xqgm.operators import ConstantsOp

    return ConstantsOp("keys", ["k"]), [{"k": value} for value in values]


class TestPushSemijoin:
    def test_restricts_result_to_matching_keys(self):
        db = build_paper_database()
        graph = _product_count_graph(db)
        keys, rows = _keys_op(["CRT 15"])
        pushed = push_semijoin(graph, [("P.pname", "k")], keys)
        result = evaluate(pushed, EvaluationContext(db, constants_tables={"keys": rows}))
        assert {r["P.pname"] for r in result} == {"CRT 15"}
        # Aggregates over the surviving group are unchanged.
        assert result[0]["n"] == 5

    def test_duplicate_keys_do_not_inflate_aggregates(self):
        db = build_paper_database()
        graph = _product_count_graph(db)
        keys, rows = _keys_op(["CRT 15", "CRT 15"])
        pushed = push_semijoin(graph, [("P.pname", "k")], keys)
        result = evaluate(pushed, EvaluationContext(db, constants_tables={"keys": rows}))
        assert len(result) == 1 and result[0]["n"] == 5

    def test_equivalent_to_plain_join_restriction(self):
        db = build_paper_database()
        graph = _product_count_graph(db)
        keys, rows = _keys_op(["LCD 19"])
        pushed = push_semijoin(graph, [("P.pname", "k")], keys)
        pushed_rows = evaluate(pushed, EvaluationContext(db, constants_tables={"keys": rows}))
        all_rows = evaluate(_product_count_graph(db), EvaluationContext(db))
        expected = [r for r in all_rows if r["P.pname"] == "LCD 19"]
        assert pushed_rows == expected

    def test_transitive_propagation_reaches_other_join_leg(self):
        db = build_paper_database()
        graph = _product_count_graph(db)
        keys, rows = _keys_op(["CRT 15"])
        pushed = push_semijoin(graph, [("P.pname", "k")], keys)
        ctx = EvaluationContext(db, constants_tables={"keys": rows}, collect_stats=True)
        evaluate(pushed, ctx)
        # The vendor side is reached through index probes (on the vendor.pid
        # index), not through a full scan feeding a hash join.
        assert ctx.stats.get("index_probes", 0) > 0

    def test_join_legs_holding_some_pushed_columns_are_not_multiplied(self):
        """Keys distinct on (P.pid, V.vid) repeat P1 on P.pid alone: the
        product leg, restricted on that column only, must keep one P1 row."""
        from repro.xqgm.operators import ConstantsOp

        db = build_paper_database()
        p = TableOp("product", "P", db.schema("product").column_names)
        v = TableOp("vendor", "V", db.schema("vendor").column_names)
        graph = JoinOp([p, v], equi_pairs=[("V.pid", "P.pid")])
        keys = ConstantsOp("keys", ["kp", "kv"])
        rows = [{"kp": "P1", "kv": "Amazon"}, {"kp": "P1", "kv": "Bestbuy"}]
        pushed = push_semijoin(graph, [("P.pid", "kp"), ("V.vid", "kv")], keys)
        result = evaluate(pushed, EvaluationContext(db, constants_tables={"keys": rows}))
        assert sorted((r["P.pid"], r["V.vid"]) for r in result) == [
            ("P1", "Amazon"), ("P1", "Bestbuy"),
        ]

    def test_push_through_select_above_groupby(self):
        db = build_paper_database()
        graph = SelectOp(_product_count_graph(db), Comparison(">=", ColumnRef("n"), Constant(2)))
        keys, rows = _keys_op(["CRT 15"])
        pushed = push_semijoin(graph, [("P.pname", "k")], keys)
        result = evaluate(pushed, EvaluationContext(db, constants_tables={"keys": rows}))
        assert len(result) == 1


class TestPruneColumns:
    def test_drops_unused_aggregates(self):
        db = build_paper_database()
        view = catalog_view()
        graph = view.path_graph("/product", db)
        pruned = prune_columns(graph.top, ["P.pname"])
        aggregates = [
            aggregate.func
            for op in walk(pruned)
            if isinstance(op, GroupByOp)
            for aggregate in op.aggregates
        ]
        # The fragment construction is gone; the count remains because the
        # having predicate still references it.
        assert "xmlfrag" not in aggregates
        assert "count" in aggregates

    def test_prune_requires_known_columns(self):
        db = build_paper_database()
        view = catalog_view()
        graph = view.path_graph("/product", db)
        with pytest.raises(Exception):
            prune_columns(graph.top, ["not_a_column"])

    def test_pruned_graph_produces_same_keys(self):
        db = build_paper_database()
        view = catalog_view()
        graph = view.path_graph("/product", db)
        pruned = prune_columns(graph.top, ["P.pname"])
        keys = {row["P.pname"] for row in evaluate(pruned, EvaluationContext(db))}
        assert keys == {"CRT 15", "LCD 19"}

    def test_distinct_union_keeps_the_columns_it_deduplicates_on(self):
        """Narrowing a DISTINCT union changes which rows are duplicates:
        ``a(x, 1)`` and ``b(x, 2)`` are two rows, ``a(x)`` and ``b(x)`` one."""
        from repro.xqgm.operators import ConstantsOp, UnionOp

        db = build_paper_database()
        union = UnionOp([ConstantsOp("a", ["k", "v"]), ConstantsOp("b", ["k", "v"])])
        top = GroupByOp(union, ["k"], [AggregateSpec("n", "count")])
        context = {"constants_tables": {"a": [{"k": "x", "v": 1}], "b": [{"k": "x", "v": 2}]}}
        assert evaluate(top, EvaluationContext(db, **context)) == [{"k": "x", "n": 2}]
        pruned = prune_columns(top, ["k", "n"])
        assert evaluate(pruned, EvaluationContext(db, **context)) == [{"k": "x", "n": 2}]
        # A UNION ALL keeps every row whatever its columns, so it is narrowed.
        union_all = UnionOp(
            [ConstantsOp("a", ["k", "v"]), ConstantsOp("b", ["k", "v"])], all=True
        )
        narrowed = prune_columns(GroupByOp(union_all, ["k"], [AggregateSpec("n", "count")]), ["k"])
        assert narrowed.input.output_columns == ("k",)
        assert evaluate(narrowed, EvaluationContext(db, **context)) == [{"k": "x"}]


class TestCompensation:
    def _old_count_graph(self, db):
        """Pre-update per-product vendor counts, via the OLD variant."""
        graph = _product_count_graph(db)
        return replace_table_variant(graph, "vendor", TableVariant.OLD)

    def test_old_counts_without_scanning_b_old(self):
        db = build_paper_database()
        old_graph = self._old_count_graph(db)
        compensated = compensate_old_aggregates(old_graph, "vendor")
        assert compensated is not None
        # No OLD-variant scan remains in the compensated graph.
        assert not any(
            isinstance(op, TableOp) and op.variant is TableVariant.OLD for op in walk(compensated)
        )
        # Insert a vendor for P2 and compare compensated old counts with truth.
        result = db.insert("vendor", {"vid": "Amazon", "pid": "P2", "price": 500.0},
                           fire_triggers=False)
        ctx = TriggerContext(db, "vendor", TriggerEvent.INSERT, result.inserted, result.deleted)
        rows = {
            r["P.pname"]: r["n"]
            for r in evaluate(compensated, EvaluationContext(db, ctx))
        }
        assert rows["LCD 19"] == 2  # before the insert
        assert rows["CRT 15"] == 5

    def test_compensation_after_delete(self):
        db = build_paper_database()
        compensated = compensate_old_aggregates(self._old_count_graph(db), "vendor")
        result = db.delete(
            "vendor", where=lambda r: r["vid"] == "Buy.com", fire_triggers=False
        )
        ctx = TriggerContext(db, "vendor", TriggerEvent.DELETE, result.inserted, result.deleted)
        rows = {
            r["P.pname"]: r["n"] for r in evaluate(compensated, EvaluationContext(db, ctx))
        }
        assert rows["LCD 19"] == 2  # the old state still had both vendors

    def test_compensation_refuses_non_distributive_aggregates(self):
        db = build_paper_database()
        p = TableOp("product", "P", db.schema("product").column_names)
        v = TableOp("vendor", "V", db.schema("vendor").column_names, variant=TableVariant.OLD)
        join = JoinOp([p, v], equi_pairs=[("V.pid", "P.pid")])
        group = GroupByOp(join, ["P.pname"], [AggregateSpec("m", "min", ColumnRef("V.price"))])
        assert compensate_old_aggregates(group, "vendor") is None

    def test_graph_without_old_scan_is_returned_unchanged(self):
        db = build_paper_database()
        graph = _product_count_graph(db)
        assert compensate_old_aggregates(graph, "vendor") is graph

    def test_phantom_old_groups_filtered(self):
        db = build_paper_database()
        db.load_rows("product", [{"pid": "P4", "pname": "OLED 27", "mfr": "LG"}])
        compensated = compensate_old_aggregates(self._old_count_graph(db), "vendor")
        result = db.insert(
            "vendor",
            [{"vid": "Amazon", "pid": "P4", "price": 1.0}, {"vid": "Bestbuy", "pid": "P4", "price": 2.0}],
            fire_triggers=False,
        )
        ctx = TriggerContext(db, "vendor", TriggerEvent.INSERT, result.inserted, result.deleted)
        rows = {r["P.pname"]: r["n"] for r in evaluate(compensated, EvaluationContext(db, ctx))}
        # The brand-new product group did not exist before the update.
        assert "OLED 27" not in rows
