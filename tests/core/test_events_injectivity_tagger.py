"""Unit tests for event pushdown, injectivity analysis, the tagger, and SQL rendering."""

import pytest

from repro.errors import XmlError
from repro.relational import TriggerEvent
from repro.core.events import RelationalEvent, events_by_table, get_source_events
from repro.core.injectivity import path_graph_is_injective, view_is_injective
from repro.core.tagger import LEVEL_COLUMN, Tagger, TaggerLevel, TaggerSchema, tag_rows
from repro.core.sqlgen import render_plan_sql
from repro.xqgm import AggregateSpec, ColumnRef
from repro.xqgm.views import ViewDefinition, ViewElementSpec, catalog_view

from tests.conftest import build_paper_database


class TestEventPushdown:
    def _events(self, event, path="/product"):
        db = build_paper_database()
        graph = catalog_view().path_graph(path, db)
        columns = frozenset({graph.node_column}) if event is TriggerEvent.UPDATE else None
        return events_by_table(get_source_events(graph.top, event, columns))

    def test_update_on_product_element(self):
        per_table = self._events(TriggerEvent.UPDATE)
        # Updates to the monitored element can be caused by updates on either
        # table and by inserts/deletes on vendor (Section 3.3).
        assert TriggerEvent.UPDATE in per_table["product"]
        assert {TriggerEvent.INSERT, TriggerEvent.UPDATE, TriggerEvent.DELETE} <= set(
            per_table["vendor"]
        )

    def test_update_on_product_mfr_is_irrelevant(self):
        per_table = self._events(TriggerEvent.UPDATE)
        product_columns = per_table["product"][TriggerEvent.UPDATE]
        assert product_columns is not None
        assert "mfr" not in product_columns
        assert "pname" in product_columns

    def test_insert_event_requires_vendor_changes(self):
        per_table = self._events(TriggerEvent.INSERT)
        assert "vendor" in per_table and "product" in per_table

    def test_nested_path_events(self):
        per_table = self._events(TriggerEvent.UPDATE, path="/product/vendor")
        assert TriggerEvent.UPDATE in per_table["vendor"]

    def test_events_by_table_merges_columns(self):
        events = [
            RelationalEvent("t", TriggerEvent.UPDATE, frozenset({"a"})),
            RelationalEvent("t", TriggerEvent.UPDATE, frozenset({"b"})),
        ]
        merged = events_by_table(events)
        assert merged["t"][TriggerEvent.UPDATE] == frozenset({"a", "b"})

    def test_events_by_table_none_means_any_column(self):
        events = [
            RelationalEvent("t", TriggerEvent.UPDATE, frozenset({"a"})),
            RelationalEvent("t", TriggerEvent.UPDATE, None),
        ]
        assert events_by_table(events)["t"][TriggerEvent.UPDATE] is None


class TestInjectivity:
    def test_catalog_view_is_injective_for_vendor(self):
        db = build_paper_database()
        graph = catalog_view().path_graph("/product", db)
        assert path_graph_is_injective(graph, "vendor")

    def test_catalog_view_not_injective_for_product_under_strict_definition(self):
        # The paper calls the catalog view injective w.r.t. product as well,
        # implicitly assuming the generated SQL trigger is restricted to the
        # columns the view reads (UPDATE OF pid, pname).  Our relational
        # triggers fire for any column update, so an update of product.mfr
        # could reach the trigger body; the strict Definition 11 therefore
        # treats the view as non-injective w.r.t. product and the service
        # keeps the OLD_NODE ≠ NEW_NODE check for product-table triggers.
        db = build_paper_database()
        graph = catalog_view().path_graph("/product", db)
        assert not path_graph_is_injective(graph, "product")

    def test_min_price_view_is_not_injective_for_vendor(self):
        db = build_paper_database()
        vendor = ViewElementSpec(
            name="vendor", table="vendor", alias="V", link=[("pid", "pid")],
            include_fragment=False,
        )
        product = ViewElementSpec(
            name="product", table="product", alias="P", element_key=["pname"],
            attributes=[("name", "P.pname")],
            content=[("min", ColumnRef("min_price"))],
            children=[vendor],
            aggregates=[AggregateSpec("min_price", "min", ColumnRef("V.price"))],
        )
        graph = ViewDefinition("minprice", "catalog", product).path_graph("/product", db)
        # The Figure 21 view: a vendor's price can change without the node
        # changing, so the view is not injective w.r.t. vendor.
        assert not path_graph_is_injective(graph, "vendor")

    def test_unrelated_table_is_trivially_injective(self):
        db = build_paper_database()
        graph = catalog_view().path_graph("/product", db)
        assert view_is_injective(graph.top, "not_in_view")


class TestTagger:
    def _schema(self):
        return TaggerSchema(
            (
                TaggerLevel("product", ("pname",), (("name", "pname"),)),
                TaggerLevel("vendor", ("vid",), (), (("vid", "vid"), ("price", "price"))),
            )
        )

    def test_assembles_nested_elements(self):
        rows = [
            {LEVEL_COLUMN: 0, "pname": "CRT 15"},
            {LEVEL_COLUMN: 1, "vid": "Amazon", "price": 100.0},
            {LEVEL_COLUMN: 1, "vid": "Bestbuy", "price": 120.0},
            {LEVEL_COLUMN: 0, "pname": "LCD 19"},
            {LEVEL_COLUMN: 1, "vid": "Buy.com", "price": 200.0},
        ]
        elements = tag_rows(self._schema(), rows)
        assert len(elements) == 2
        assert elements[0].attribute("name") == "CRT 15"
        assert len(elements[0].child_elements("vendor")) == 2
        assert elements[1].child_elements("vendor")[0].child_elements("vid")[0].string_value() == "Buy.com"

    def test_constant_space_property(self):
        tagger = Tagger(self._schema())
        emitted = 0
        for i in range(100):
            for row in (
                {LEVEL_COLUMN: 0, "pname": f"p{i}"},
                {LEVEL_COLUMN: 1, "vid": f"v{i}", "price": 1.0},
            ):
                emitted += len(list(tagger.feed(row)))
                assert tagger.open_depth <= 2
        emitted += len(list(tagger.finish()))
        assert emitted == 100 and tagger.emitted == 100

    def test_missing_level_column_rejected(self):
        with pytest.raises(XmlError):
            tag_rows(self._schema(), [{"pname": "x"}])

    def test_out_of_order_rows_rejected(self):
        with pytest.raises(XmlError):
            tag_rows(self._schema(), [{LEVEL_COLUMN: 1, "vid": "v", "price": 1.0}])

    def test_level_out_of_range_rejected(self):
        with pytest.raises(XmlError):
            tag_rows(self._schema(), [{LEVEL_COLUMN: 5, "pname": "x"}])

    def test_empty_input(self):
        assert tag_rows(self._schema(), []) == []


class TestSqlRendering:
    def test_rendered_trigger_mentions_transition_tables(self):
        from repro.core.service import ActiveViewService

        service = ActiveViewService(build_paper_database())
        service.register_view(catalog_view())
        service.register_action("sink", lambda node: None)
        service.create_trigger(
            "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE)"
        )
        (sql,) = [text for text in service.generated_sql("T") if "ON VENDOR" in text]
        assert "CREATE TRIGGER" in sql
        assert "REFERENCING OLD_TABLE AS DELETED, NEW_TABLE AS INSERTED" in sql
        assert "FOR EACH STATEMENT" in sql
        assert "INSERTED" in sql and "WITH " in sql
        assert "XMLELEMENT" in sql and "XMLAGG" in sql
        assert "GROUP BY" in sql

    def test_render_plan_sql_lists_ctes_once_per_shared_operator(self):
        db = build_paper_database()
        graph = catalog_view().path_graph("/product", db)
        sql = render_plan_sql(graph.top)
        assert sql.count("FROM product AS P") == 1
        assert sql.startswith("WITH ")
