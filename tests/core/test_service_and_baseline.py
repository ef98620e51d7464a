"""Integration tests: the full service pipeline against the MATERIALIZED oracle."""

import pytest

from repro.core.baseline import MaterializedBaseline
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import UpdateStatement
from repro.xmlmodel import serialize
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

NOTIFY = """
CREATE TRIGGER Notify AFTER Update
ON view('catalog')/product
WHERE OLD_NODE/@name = 'CRT 15'
DO notifySmith(NEW_NODE)
"""

ALL_MODES = [ExecutionMode.UNGROUPED, ExecutionMode.GROUPED, ExecutionMode.GROUPED_AGG]


def build_service(mode, db=None, triggers=(NOTIFY,), actions=("notifySmith",)):
    db = db or build_paper_database()
    service = ActiveViewService(db, mode=mode)
    service.register_view(catalog_view())
    sink = []
    for action in actions:
        service.register_action(action, lambda *args: sink.append(args))
    for text in triggers:
        service.create_trigger(text)
    return service, sink


class TestServiceBasics:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_paper_trigger_fires_on_price_update(self, mode):
        service, sink = build_service(mode)
        result = service.update(
            "vendor", {"price": 75.0},
            where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1",
        )
        assert result.fired_xml_triggers == ["Notify"]
        assert len(sink) == 1
        new_node = sink[0][0]
        assert new_node.attribute("name") == "CRT 15"
        assert "75.0" in serialize(new_node)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_condition_filters_other_products(self, mode):
        service, sink = build_service(mode)
        service.update("vendor", {"price": 170.0},
                       where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P2")
        assert service.fired == [] and sink == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_descendant_update_fires_top_level_trigger(self, mode):
        # "the trigger will be fired not only for direct updates to a <product>
        # element, but also for updates to its descendant nodes" (Section 2.2)
        service, sink = build_service(mode)
        service.insert("vendor", {"vid": "Newegg", "pid": "P3", "price": 110.0})
        assert [f.trigger for f in service.fired] == ["Notify"]

    def test_generated_sql_resembles_figure_16(self):
        service, _ = build_service(ExecutionMode.GROUPED_AGG)
        rendered = service.generated_sql("Notify")
        assert any("AFTER" in text and "ON VENDOR" in text for text in rendered)
        assert any("FOR EACH STATEMENT" in text for text in rendered)

    def test_group_count_stays_one_for_similar_triggers(self):
        triggers = [
            NOTIFY.replace("Notify", f"T{i}").replace("CRT 15", name)
            for i, name in enumerate(["CRT 15", "LCD 19", "Plasma 42"])
        ]
        service, _ = build_service(ExecutionMode.GROUPED, triggers=triggers)
        assert service.group_count() == 1
        # UNGROUPED mode keeps them separate.
        service2, _ = build_service(ExecutionMode.UNGROUPED, triggers=triggers)
        assert service2.group_count() == 3

    def test_drop_trigger_removes_sql_triggers_when_group_empties(self):
        service, _ = build_service(ExecutionMode.GROUPED)
        assert len(service.database.triggers()) > 0
        service.drop_trigger("Notify")
        assert service.database.triggers() == []
        service.update("vendor", {"price": 75.0},
                       where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1")
        assert service.fired == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_two_services_on_one_database_both_fire(self, mode):
        # SQL trigger names must not collide between services sharing a
        # database: both install the same XML trigger and both fire.
        db = build_paper_database()
        first, first_sink = build_service(mode, db=db)
        second, second_sink = build_service(mode, db=db)
        db.execute(UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")]))
        assert [f.trigger for f in first.fired] == ["Notify"]
        assert [f.trigger for f in second.fired] == ["Notify"]
        assert len(first_sink) == len(second_sink) == 1
        second.drop_trigger("Notify")
        assert [t.name for t in db.triggers()] == [
            name for compiled in first._groups.values() for name in compiled.sql_trigger_names
        ]

    def test_duplicate_trigger_name_rejected(self):
        service, _ = build_service(ExecutionMode.GROUPED)
        with pytest.raises(Exception):
            service.create_trigger(NOTIFY)

    def test_unknown_view_rejected(self):
        db = build_paper_database()
        service = ActiveViewService(db)
        with pytest.raises(Exception):
            service.create_trigger(NOTIFY)

    def test_compile_time_is_recorded(self):
        service, _ = build_service(ExecutionMode.GROUPED_AGG)
        assert 0 < service.last_compile_seconds < 1.0

    def test_insert_trigger(self):
        insert_trigger = (
            "CREATE TRIGGER NewProduct AFTER INSERT ON view('catalog')/product "
            "DO announce(NEW_NODE/@name)"
        )
        service, sink = build_service(
            ExecutionMode.GROUPED_AGG, triggers=(insert_trigger,), actions=("announce",)
        )
        service.insert("product", {"pid": "P4", "pname": "OLED 27", "mfr": "LG"})
        assert service.fired == []  # not yet in the view (no vendors)
        service.insert(
            "vendor",
            [
                {"vid": "Amazon", "pid": "P4", "price": 1.0},
                {"vid": "Bestbuy", "pid": "P4", "price": 2.0},
            ],
        )
        assert [f.trigger for f in service.fired] == ["NewProduct"]
        assert sink[0][0].value == "OLED 27"

    def test_delete_trigger(self):
        delete_trigger = (
            "CREATE TRIGGER Gone AFTER DELETE ON view('catalog')/product "
            "WHERE OLD_NODE/@name = 'LCD 19' DO bye(OLD_NODE/@name)"
        )
        service, sink = build_service(
            ExecutionMode.GROUPED, triggers=(delete_trigger,), actions=("bye",)
        )
        service.delete("vendor", where=lambda r: r["pid"] == "P2" and r["vid"] == "Buy.com")
        assert [f.trigger for f in service.fired] == ["Gone"]
        assert sink[0][0].value == "LCD 19"

    def test_multiple_statements_accumulate_firings(self):
        service, sink = build_service(ExecutionMode.GROUPED_AGG)
        for price in (75.0, 80.0, 85.0):
            service.update("vendor", {"price": price},
                           where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1")
        assert len(service.fired) == 3
        service.clear_logs()
        assert service.fired == [] and service.action_calls == []


class TestAgainstOracle:
    """Every mode must agree with the MATERIALIZED oracle on what fires."""

    STATEMENTS = [
        ("update", dict(table="vendor", assignments={"price": 75.0},
                        where=lambda r: r["vid"] == "Amazon" and r["pid"] == "P1")),
        ("insert", dict(table="vendor", rows={"vid": "Newegg", "pid": "P3", "price": 110.0})),
        ("delete", dict(table="vendor",
                        where=lambda r: r["pid"] == "P2" and r["vid"] == "Buy.com")),
        ("update", dict(table="product", assignments={"pname": "CRT 15"},
                        where=lambda r: r["pid"] == "P2")),
    ]

    TRIGGERS = [
        NOTIFY,
        NOTIFY.replace("Notify", "NotifyLCD").replace("CRT 15", "LCD 19"),
        "CREATE TRIGGER AnyUpdate AFTER UPDATE ON view('catalog')/product DO notifySmith(NEW_NODE/@name)",
        "CREATE TRIGGER Appeared AFTER INSERT ON view('catalog')/product DO notifySmith(NEW_NODE/@name)",
        "CREATE TRIGGER Vanished AFTER DELETE ON view('catalog')/product DO notifySmith(OLD_NODE/@name)",
    ]

    def _run_statements(self, runner):
        from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement

        for kind, kwargs in self.STATEMENTS:
            if kind == "update":
                statement = UpdateStatement(kwargs["table"], kwargs["assignments"], kwargs.get("where"))
            elif kind == "insert":
                rows = kwargs["rows"]
                statement = InsertStatement(kwargs["table"], [rows] if isinstance(rows, dict) else rows)
            else:
                statement = DeleteStatement(kwargs["table"], kwargs.get("where"))
            runner(statement)

    def _oracle_firings(self):
        db = build_paper_database()
        oracle = MaterializedBaseline(db)
        oracle.register_view(catalog_view())
        oracle.register_action("notifySmith", lambda *args: None)
        for text in self.TRIGGERS:
            oracle.create_trigger(parse_trigger(text))
        self._run_statements(lambda stmt: oracle.execute(stmt))
        return sorted((c.trigger_name, str(c.key)) for c in oracle.fired)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_match_oracle(self, mode):
        oracle_firings = self._oracle_firings()
        service, _ = build_service(mode, triggers=self.TRIGGERS)
        self._run_statements(service.execute)
        service_firings = sorted((f.trigger, str(f.key)) for f in service.fired)
        assert service_firings == oracle_firings

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_new_node_values_match_oracle(self, mode):
        db = build_paper_database()
        oracle = MaterializedBaseline(db)
        oracle.register_view(catalog_view())
        oracle.register_action("notifySmith", lambda *args: None)
        oracle.create_trigger(parse_trigger(NOTIFY))

        service, _ = build_service(mode)
        from repro.relational.dml import UpdateStatement

        statement = UpdateStatement(
            "vendor", {"price": 75.0}, lambda r: r["vid"] == "Amazon" and r["pid"] == "P1"
        )
        _, _, oracle_calls = oracle.execute(statement)
        service.execute(statement)
        assert len(oracle_calls) == len(service.fired) == 1
        assert serialize(oracle_calls[0].new_node) == serialize(service.fired[0].new_node)
