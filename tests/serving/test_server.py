"""ActiveViewServer + ShardedDatabase basics: routing, execution, lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro.core.service import ExecutionMode
from repro.errors import (
    IntegrityError,
    ServerStoppedError,
    ShardRoutingError,
    TriggerActivationError,
)
from repro.relational import (
    Column,
    DataType,
    InsertStatement,
    ShardRouter,
    ShardedDatabase,
    TableSchema,
    UpdateStatement,
)
from repro.serving import ActiveViewServer
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database
from tests.serving.conftest import build_sharded_paper_database, by_product


# ---------------------------------------------------------------------- router


class TestShardRouter:
    def test_key_policy_is_deterministic_and_covers_all_shards(self):
        router = ShardRouter(4)
        shards = {router.shard_of("t", (value,)) for value in range(64)}
        assert shards == {0, 1, 2, 3}
        assert all(
            router.shard_of("t", (value,)) == router.shard_of("t", (value,))
            for value in range(64)
        )

    def test_custom_key_fn_colocates_related_rows(self):
        router = ShardRouter(8, key_fn=by_product)
        assert router.shard_of("vendor", ("Amazon", "P1")) == router.shard_of(
            "product", ("P1",)
        )

    def test_table_key_fn_routes_whole_tables(self):
        router = ShardRouter(4, key_fn=lambda table, key: table)
        assert router.shard_of("product", ("P1",)) == router.shard_of("product", ("P2",))
        # Keys that would span shards under primary-key routing route to the
        # table's one shard instead of raising.
        schema = build_paper_database().schema("product")
        statement = UpdateStatement("product", {"mfr": "x"}, keys=[("P1",), ("P2",), ("P3",)])
        assert router.shard_of_statement(statement, schema) == router.shard_of("product", None)

    def test_keyless_row_under_key_policy_is_rejected(self):
        with pytest.raises(ShardRoutingError):
            ShardRouter(2).shard_of("t", None)

    def test_statement_spanning_shards_is_rejected(self):
        db = build_sharded_paper_database(2)
        schema = db.schema("product")
        spanning = UpdateStatement("product", {"mfr": "x"}, keys=[("P1",), ("P2",), ("P3",)])
        shards = {db.router.shard_of("product", (pid,)) for pid in ("P1", "P2", "P3")}
        if len(shards) > 1:
            with pytest.raises(ShardRoutingError):
                db.router.shard_of_statement(spanning, schema)

    def test_predicate_only_statement_broadcasts(self):
        db = build_sharded_paper_database(2)
        statement = UpdateStatement("vendor", {"price": 1.0}, where=lambda r: False)
        assert db.statement_shard(statement) is None

    def test_bad_configuration_rejected(self):
        with pytest.raises(ShardRoutingError):
            ShardRouter(0)


# ------------------------------------------------------------------- sharded db


class TestShardedDatabase:
    def test_partitioned_contents_match_unsharded(self):
        sharded = build_sharded_paper_database(3)
        flat = build_paper_database()
        assert sharded.row_count("vendor") == flat.row_count("vendor")
        assert sharded.row_count("product") == flat.row_count("product")
        flat_snapshot = {
            name: sorted(rows, key=repr) for name, rows in flat.snapshot().items()
        }
        assert sharded.snapshot() == flat_snapshot

    def test_rows_are_disjoint_across_shards(self):
        sharded = build_sharded_paper_database(3)
        seen: set = set()
        for shard in sharded.shards:
            rows = {("product", row) for row in shard.snapshot()["product"]}
            assert not (seen & rows)
            seen |= rows

    def test_view_closure_products_live_with_their_vendors(self):
        sharded = build_sharded_paper_database(3)
        for shard in sharded.shards:
            product_ids = {row[0] for row in shard.snapshot()["product"]}
            vendor_pids = {row[1] for row in shard.snapshot()["vendor"]}
            assert vendor_pids <= product_ids

    def test_execute_routes_to_owning_shard(self):
        sharded = build_sharded_paper_database(2)
        result = sharded.execute(UpdateStatement("vendor", {"price": 1.5}, keys=[("Amazon", "P1")]))
        assert result.rowcount == 1
        owner = sharded.statement_shard(
            UpdateStatement("vendor", {"price": 1.5}, keys=[("Amazon", "P1")])
        )
        rows = dict(zip(("vid", "pid", "price"),
                        next(r for r in sharded.shard(owner).snapshot()["vendor"] if r[0] == "Amazon" and r[1] == "P1")))
        assert rows["price"] == 1.5

    def test_execute_broadcast_returns_per_shard_results(self):
        sharded = build_sharded_paper_database(2)
        results = sharded.execute(
            UpdateStatement("vendor", lambda row: {"price": row["price"] + 1},
                            where=lambda row: row["price"] >= 150)
        )
        assert isinstance(results, list) and len(results) == 2
        assert sum(result.rowcount for result in results) == 3  # 150, 200, 180

    def test_execute_many_groups_by_shard(self):
        sharded = build_sharded_paper_database(2)
        statements = [
            UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]),
            UpdateStatement("vendor", {"price": 20.0}, keys=[("Buy.com", "P2")]),
        ]
        per_shard = sharded.execute_many(statements)
        assert sum(len(batch.statements) for batch in per_shard.values()) == 2

    def test_keyless_insert_routes_instead_of_broadcasting(self):
        # Broadcasting a keyless INSERT would duplicate the row per shard.
        routable = ShardedDatabase(2, name="logs", key_fn=lambda table, key: table)
        routable.create_table(TableSchema("log", [Column("msg", DataType.TEXT)]))
        routable.execute(InsertStatement("log", [{"msg": "hello"}]))
        assert routable.row_count("log") == 1
        # Without a key_fn it cannot be routed at all — reject it, the
        # same way load_rows does for keyless tables.
        strict = ShardedDatabase(2, name="strict")
        strict.create_table(TableSchema("log", [Column("msg", DataType.TEXT)]))
        with pytest.raises(ShardRoutingError):
            strict.execute(InsertStatement("log", [{"msg": "x"}]))

    def test_from_databases_wraps_single_database(self):
        flat = build_paper_database()
        sharded = ShardedDatabase.from_databases([flat])
        assert sharded.shard_count == 1
        assert sharded.statement_shard(
            UpdateStatement("vendor", {"price": 1.0}, keys=[("Amazon", "P1")])
        ) == 0


# --------------------------------------------------------------------- server


def build_server(shard_count: int = 2, **kwargs) -> tuple[ActiveViewServer, list]:
    server = ActiveViewServer(
        build_sharded_paper_database(shard_count),
        mode=ExecutionMode.GROUPED_AGG,
        **kwargs,
    )
    server.register_view(catalog_view())
    notifications: list = []
    server.register_action("notify", notifications.append)
    server.create_trigger(
        "CREATE TRIGGER Crt AFTER UPDATE ON view('catalog')/product "
        "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
    )
    return server, notifications


class TestActiveViewServer:
    def test_execute_fires_triggers_and_delivers(self):
        server, notifications = build_server()
        subscriber = server.subscribe("audit")
        with server:
            result = server.execute(
                UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])
            )
        assert result.rowcount == 1
        activations = subscriber.drain()
        assert [a.trigger for a in activations] == ["Crt"]
        assert activations[0].key == ("CRT 15",)
        assert len(notifications) == 1

    def test_plan_cache_is_shared_across_shards(self):
        server, _ = build_server(shard_count=4)
        assert server.plan_cache.misses == 1
        assert server.plan_cache.hits == 3

    def test_broadcast_statement_returns_all_parts(self):
        server, _ = build_server()
        with server:
            results = server.execute(
                UpdateStatement("vendor", lambda row: {"price": row["price"] + 1},
                                where=lambda row: row["price"] > 500)
            )
        assert isinstance(results, list) and len(results) == 2

    def test_submit_many_open_loop_then_drain(self):
        server, _ = build_server()
        statements = [
            UpdateStatement("vendor", {"price": 60.0 + i}, keys=[("Amazon", "P1")])
            for i in range(6)
        ]
        with server:
            tickets = server.submit_many(statements)
            server.drain()
            assert all(ticket.done for ticket in tickets)
        assert sum(stats.statements for stats in server.stats) == 6

    def test_micro_batching_under_load(self):
        server, _ = build_server(shard_count=1, max_batch=8)
        statements = [
            UpdateStatement("vendor", {"price": 60.0 + i}, keys=[("Amazon", "P1")])
            for i in range(12)
        ]
        # Queue everything before the worker starts: the first chunk must
        # micro-batch up to the cap.
        server._running = True
        tickets = [server.submit(s) for s in statements]
        server._running = False
        with server:
            server.drain()
        assert all(t.done for t in tickets)
        assert server.stats[0].max_batch == 8
        assert server.stats[0].batches < len(statements)

    def test_failing_statement_fails_its_ticket_and_server_survives(self):
        server, _ = build_server()
        with server:
            bad = server.submit(
                InsertStatement("product", [{"pid": "P1", "pname": "dup", "mfr": None}])
            )
            with pytest.raises(IntegrityError):
                bad.result(timeout=10)
            good = server.execute(
                UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")])
            )
            assert good.rowcount == 1
        assert sum(stats.errors for stats in server.stats) == 1

    def test_failing_statement_leaves_its_micro_batch_neighbours_their_results(self):
        """A statement that raises inside a micro-batch fails its own ticket
        only: the statements ahead of it were applied, fired and delivered
        and resolve with their results, and the ones behind it run next.
        A client told otherwise would retry an applied statement."""
        server, notifications = build_server(shard_count=1)
        entered, release = threading.Event(), threading.Event()

        def park(node) -> None:
            entered.set()
            assert release.wait(30)

        server.register_action("park", park)
        server.create_trigger(
            "CREATE TRIGGER Park AFTER UPDATE ON view('catalog')/product "
            "WHERE NEW_NODE/@name = 'LCD 19' DO park(NEW_NODE)"
        )
        subscriber = server.subscribe("audit")
        with server:
            # Park the worker inside an action, then queue one micro-batch.
            plug = server.submit(
                UpdateStatement("vendor", {"price": 1.0}, keys=[("Buy.com", "P2")])
            )
            assert entered.wait(30)
            update, duplicate, behind = (
                server.submit(statement) for statement in (
                    UpdateStatement("vendor", {"price": 2.0}, keys=[("Bestbuy", "P1")]),
                    InsertStatement("vendor", [{"vid": "Amazon", "pid": "P1", "price": 9.0}]),
                    UpdateStatement("vendor", {"price": 3.0}, keys=[("Amazon", "P1")]),
                )
            )
            release.set()
            assert plug.result(timeout=10).rowcount == 1
            assert update.result(timeout=10).rowcount == 1
            with pytest.raises(IntegrityError):
                duplicate.result(timeout=10)
            assert behind.result(timeout=10).rowcount == 1
        prices = {row[:2]: row[2] for row in server.sharded.snapshot()["vendor"]}
        assert prices[("Bestbuy", "P1")] == 2.0 and prices[("Amazon", "P1")] == 3.0
        assert [a.trigger for a in subscriber.drain()] == ["Park", "Crt", "Crt"]
        assert len(notifications) == 2
        assert server.stats[0].errors == 1

    def test_submit_after_stop_raises(self):
        server, _ = build_server()
        server.start()
        server.stop()
        with pytest.raises(ServerStoppedError):
            server.submit(UpdateStatement("vendor", {"price": 1.0}, keys=[("Amazon", "P1")]))

    def test_restart_after_stop(self):
        server, _ = build_server()
        with server:
            server.execute(UpdateStatement("vendor", {"price": 71.0}, keys=[("Amazon", "P1")]))
        with server:
            server.execute(UpdateStatement("vendor", {"price": 72.0}, keys=[("Amazon", "P1")]))
        assert sum(stats.statements for stats in server.stats) == 2

    def test_anonymous_subscriber_names_never_collide(self):
        """Names used to come from the live count, so an unsubscribe made the
        next anonymous subscriber reuse a live one's name."""
        server, _ = build_server()
        first, second = server.subscribe(), server.subscribe()
        server.unsubscribe(first)
        third = server.subscribe()
        assert len({first.name, second.name, third.name}) == 3

    def test_raising_activation_hook_drops_the_bundle(self):
        """The batch's tickets carry the hook's error (an action's error, if
        one came first, chained behind it), no subscriber gets the bundle,
        and its sequence numbers are not reused."""
        server, _ = build_server(shard_count=1)
        calls: list = []

        def hook(bundle):
            calls.append(len(bundle))
            if len(calls) == 1:
                raise OSError("hook failed")

        def explode(node):
            raise ValueError("action failed")

        server.register_action("explode", explode)
        server.create_trigger(
            "CREATE TRIGGER Late AFTER UPDATE ON view('catalog')/product "
            "WHERE OLD_NODE/@name = 'CRT 15' DO explode(NEW_NODE)"
        )
        server.add_activation_hook(hook)
        subscriber = server.subscribe("audit")
        with server:
            with pytest.raises(OSError, match="hook failed") as raised:
                server.execute(UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")]))
            assert isinstance(raised.value.__context__, TriggerActivationError)
            server.drop_trigger("Late")
            server.execute(UpdateStatement("vendor", {"price": 76.0}, keys=[("Amazon", "P1")]))
        assert calls == [1, 1]
        assert [a.sequence for a in subscriber.drain()] == [2]

    def test_wrapping_a_plain_database_serves_one_shard(self):
        server = ActiveViewServer(build_paper_database())
        server.register_view(catalog_view())
        server.register_action("notify", lambda node: None)
        server.create_trigger(
            "CREATE TRIGGER Crt AFTER UPDATE ON view('catalog')/product "
            "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
        )
        with server:
            server.execute(UpdateStatement("vendor", {"price": 77.0}, keys=[("Amazon", "P1")]))
        assert [fired.trigger for fired in server.fired] == ["Crt"]
