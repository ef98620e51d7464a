"""Unit tests for the batch execution engine: execute_many and delta coalescing."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError
from repro.relational import (
    Batch,
    BulkLoad,
    Column,
    DataType,
    Database,
    DeleteStatement,
    DeltaCoalescer,
    InsertStatement,
    StatementTrigger,
    TableSchema,
    UpdateStatement,
)


def make_db(primary_key=("id",)) -> tuple[Database, list]:
    """One-table database with a recording trigger on every event."""
    db = Database("batch-test")
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, nullable=False),
                Column("v", DataType.INTEGER),
            ],
            primary_key=list(primary_key),
        )
    )
    firings: list[tuple] = []
    db.register_trigger(
        StatementTrigger(
            "rec",
            "t",
            {"INSERT", "UPDATE", "DELETE"},
            body=lambda ctx: firings.append(
                (
                    ctx.event.value,
                    sorted(ctx.inserted.rows),
                    sorted(ctx.deleted.rows),
                    ctx.statements,
                )
            ),
        )
    )
    return db, firings


class TestExecuteMany:
    def test_single_firing_per_table_event(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10), (2, 20), (3, 30)])
        result = db.execute_many(
            [
                UpdateStatement("t", {"v": 11}, keys=[(1,)]),
                UpdateStatement("t", {"v": 22}, keys=[(2,)]),
                UpdateStatement("t", {"v": 33}, keys=[(3,)]),
            ]
        )
        # Three statements, one UPDATE firing with the combined deltas.
        assert firings == [
            ("UPDATE", [(1, 11), (2, 22), (3, 33)], [(1, 10), (2, 20), (3, 30)], 3)
        ]
        assert result.rowcount == 3
        assert result.fired_sql_triggers == ["rec"]
        assert result.tables == ["t"]

    def test_matches_sequential_final_state(self):
        statements = [
            InsertStatement("t", [{"id": 1, "v": 1}, {"id": 2, "v": 2}]),
            UpdateStatement("t", {"v": 9}, keys=[(1,)]),
            DeleteStatement("t", keys=[(2,)]),
            InsertStatement("t", [{"id": 3, "v": 3}]),
        ]
        db_batch, _ = make_db()
        db_seq, _ = make_db()
        db_batch.execute_many(statements)
        for statement in statements:
            db_seq.execute(statement)
        assert db_batch.snapshot() == db_seq.snapshot()

    def test_insert_then_delete_cancels(self):
        db, firings = make_db()
        result = db.execute_many(
            [
                InsertStatement("t", [{"id": 7, "v": 70}]),
                DeleteStatement("t", keys=[(7,)]),
            ]
        )
        # The row never survives the batch: no delta, no firing.
        assert firings == []
        assert result.deltas == []
        assert result.fired_sql_triggers == []
        assert db.row_count("t") == 0
        # The per-statement results are still recorded faithfully.
        assert [r.event for r in result.statements] == ["INSERT", "DELETE"]
        assert result.rowcount == 2

    def test_insert_then_update_is_net_insert(self):
        db, firings = make_db()
        db.execute_many(
            [
                InsertStatement("t", [{"id": 1, "v": 1}]),
                UpdateStatement("t", {"v": 99}, keys=[(1,)]),
            ]
        )
        assert firings == [("INSERT", [(1, 99)], [], 2)]

    def test_delete_then_reinsert_is_net_update(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10)])
        db.execute_many(
            [
                DeleteStatement("t", keys=[(1,)]),
                InsertStatement("t", [{"id": 1, "v": 55}]),
            ]
        )
        assert firings == [("UPDATE", [(1, 55)], [(1, 10)], 2)]

    def test_update_chain_keeps_first_preimage(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10)])
        db.execute_many(
            [
                UpdateStatement("t", {"v": 20}, keys=[(1,)]),
                UpdateStatement("t", {"v": 30}, keys=[(1,)]),
            ]
        )
        assert firings == [("UPDATE", [(1, 30)], [(1, 10)], 2)]

    def test_primary_key_change_splits_into_delete_and_insert(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10)])
        db.execute_many([UpdateStatement("t", lambda row: {"id": 2}, keys=[(1,)])])
        events = sorted(f[0] for f in firings)
        assert events == ["DELETE", "INSERT"]

    def test_old_table_reconstruction_spans_whole_batch(self):
        # A slice's B_old must undo the *entire* batch's net delta on the
        # table, not just its own slice — otherwise rows inserted by a
        # sibling slice leak into the pre-batch reconstruction.
        db = Database("bold")
        db.create_table(
            TableSchema(
                "t",
                [Column("id", DataType.INTEGER, nullable=False),
                 Column("v", DataType.INTEGER)],
                primary_key=["id"],
            )
        )
        db.load_rows("t", [(1, 10)])
        old_tables: dict[str, list] = {}
        db.register_trigger(
            StatementTrigger(
                "rec",
                "t",
                {"INSERT", "UPDATE", "DELETE"},
                body=lambda ctx: old_tables.setdefault(
                    ctx.event.value, sorted(ctx.old_table_rows())
                ),
            )
        )
        db.execute_many(
            [
                InsertStatement("t", [{"id": 2, "v": 20}]),
                UpdateStatement("t", {"v": 11}, keys=[(1,)]),
            ]
        )
        # Both slices reconstruct the true pre-batch table: just (1, 10).
        assert old_tables == {"INSERT": [(1, 10)], "UPDATE": [(1, 10)]}

    def test_mixed_events_fire_in_insert_update_delete_order(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10), (2, 20)])
        db.execute_many(
            [
                DeleteStatement("t", keys=[(2,)]),
                UpdateStatement("t", {"v": 11}, keys=[(1,)]),
                InsertStatement("t", [{"id": 3, "v": 30}]),
            ]
        )
        assert [f[0] for f in firings] == ["INSERT", "UPDATE", "DELETE"]

    def test_no_primary_key_concatenates_per_event(self):
        db = Database("nopk")
        db.create_table(
            TableSchema("t", [Column("v", DataType.INTEGER)], primary_key=[])
        )
        firings: list[tuple] = []
        db.register_trigger(
            StatementTrigger(
                "rec",
                "t",
                {"INSERT", "UPDATE", "DELETE"},
                body=lambda ctx: firings.append(
                    (ctx.event.value, sorted(ctx.inserted.rows), sorted(ctx.deleted.rows))
                ),
            )
        )
        db.execute_many(
            [
                InsertStatement("t", [{"v": 1}]),
                InsertStatement("t", [{"v": 1}]),  # duplicate rows stay a bag
                InsertStatement("t", [{"v": 2}]),
            ]
        )
        assert firings == [("INSERT", [(1,), (1,), (2,)], [])]

    def test_no_pk_old_table_reconstruction_cancels_across_slices(self):
        # Without a primary key the per-event slices can carry the same row
        # as both inserted and deleted (insert-then-delete); the batch-wide
        # reconstruction must cancel them or B_old grows a phantom row.
        db = Database("nopk-bold")
        db.create_table(
            TableSchema("t", [Column("v", DataType.INTEGER)], primary_key=[])
        )
        db.load_rows("t", [(1,)])
        old_tables: list[tuple[str, list]] = []
        db.register_trigger(
            StatementTrigger(
                "rec",
                "t",
                {"INSERT", "UPDATE", "DELETE"},
                body=lambda ctx: old_tables.append(
                    (ctx.event.value, sorted(ctx.old_table_rows()))
                ),
            )
        )
        db.execute_many(
            [
                InsertStatement("t", [{"v": 9}]),
                DeleteStatement("t", where=lambda r: r["v"] == 9),
            ]
        )
        # Both slices see the true pre-batch table: just (1,).
        assert old_tables == [("INSERT", [(1,)]), ("DELETE", [(1,)])]

    def test_fire_triggers_false(self):
        db, firings = make_db()
        result = db.execute_many(
            [InsertStatement("t", [{"id": 1, "v": 1}])], fire_triggers=False
        )
        assert firings == []
        assert result.fired_sql_triggers == []
        assert len(result.deltas) == 1  # deltas are still coalesced and reported

    def test_error_fires_the_applied_prefix_then_raises(self):
        db, firings = make_db()
        with pytest.raises(IntegrityError):
            db.execute_many(
                [
                    InsertStatement("t", [{"id": 1, "v": 1}]),
                    InsertStatement("t", [{"id": 2, "v": 2}]),
                    InsertStatement("t", [{"id": 1, "v": 3}]),  # duplicate key
                    InsertStatement("t", [{"id": 4, "v": 4}]),  # never applied
                ]
            )
        assert db.row_count("t") == 2  # the prefix stays applied...
        assert firings == [("INSERT", [(1, 1), (2, 2)], [], 2)]  # ...and fired once

    def test_error_on_the_first_statement_fires_nothing(self):
        db, firings = make_db()
        db.load_rows("t", [(1, 10)])
        with pytest.raises(IntegrityError):
            db.execute_many(
                [
                    InsertStatement("t", [{"id": 1, "v": 2}]),  # duplicate key
                    UpdateStatement("t", {"v": 11}, keys=[(1,)]),  # never applied
                ]
            )
        assert firings == []  # an empty prefix has nothing to fire
        assert db.row_count("t") == 1

    def test_a_failed_batch_coalesces_its_prefix_like_a_whole_one(self):
        """The prefix fires exactly as a batch of just those statements
        would: one firing per event, INSERT, UPDATE, DELETE in that order,
        each with the prefix's net delta."""
        prefix = [
            DeleteStatement("t", keys=[(2,)]),
            UpdateStatement("t", {"v": 11}, keys=[(1,)]),
            InsertStatement("t", [{"id": 3, "v": 30}]),
            UpdateStatement("t", {"v": 12}, keys=[(1,)]),
        ]
        whole, expected = make_db()
        whole.load_rows("t", [(1, 10), (2, 20)])
        whole.execute_many(prefix)
        db, firings = make_db()
        db.load_rows("t", [(1, 10), (2, 20)])
        with pytest.raises(IntegrityError):
            db.execute_many(
                [*prefix, InsertStatement("t", [{"id": 3, "v": 31}])]  # duplicate key
            )
        assert firings == expected == [
            ("INSERT", [(3, 30)], [], 4),
            ("UPDATE", [(1, 12)], [(1, 10)], 4),
            ("DELETE", [], [(2, 20)], 4),
        ]
        assert db.snapshot() == whole.snapshot()

    def test_a_trigger_raising_on_the_prefix_chains_the_statement_error(self):
        db, _firings = make_db()

        def explode(ctx) -> None:
            raise RuntimeError("trigger body failed")

        db.register_trigger(StatementTrigger("boom", "t", {"INSERT"}, body=explode))
        with pytest.raises(RuntimeError, match="trigger body failed") as raised:
            db.execute_many(
                [
                    InsertStatement("t", [{"id": 1, "v": 1}]),
                    InsertStatement("t", [{"id": 1, "v": 2}]),  # duplicate key
                ]
            )
        assert isinstance(raised.value.__context__, IntegrityError)

    def test_batch_and_bulkload_inputs(self):
        db, firings = make_db()
        batch = Batch(label="load").add(InsertStatement("t", [{"id": 1, "v": 1}]))
        batch.add(UpdateStatement("t", {"v": 5}, keys=[(1,)]))
        assert len(batch) == 2
        db.execute_many(batch)
        assert firings == [("INSERT", [(1, 5)], [], 2)]

        firings.clear()
        load = BulkLoad("t", [{"id": i, "v": i} for i in range(2, 8)], chunk_size=2)
        assert len(load.statements()) == 3
        result = db.execute_many(load)
        # Three chunked INSERT statements, one coalesced firing.
        assert len(firings) == 1 and firings[0][0] == "INSERT"
        assert result.rowcount == 6
        assert db.row_count("t") == 7

    def test_empty_batch(self):
        db, firings = make_db()
        result = db.execute_many([])
        assert result.statements == [] and result.deltas == []
        assert firings == []


class TestDeltaCoalescer:
    def test_deltas_preserve_table_touch_order(self):
        db = Database("two")
        for name in ("a", "b"):
            db.create_table(
                TableSchema(
                    name,
                    [Column("id", DataType.INTEGER, nullable=False)],
                    primary_key=["id"],
                )
            )
        coalescer = DeltaCoalescer()
        coalescer.absorb(db.execute(InsertStatement("b", [{"id": 1}]), fire_triggers=False))
        coalescer.absorb(db.execute(InsertStatement("a", [{"id": 1}]), fire_triggers=False))
        coalescer.absorb(db.execute(InsertStatement("b", [{"id": 2}]), fire_triggers=False))
        deltas = coalescer.deltas()
        assert [(d.table, d.event, d.statements) for d in deltas] == [
            ("b", "INSERT", 2),
            ("a", "INSERT", 1),
        ]

    def test_statement_counts_per_delta(self):
        db, _ = make_db()
        db.load_rows("t", [(1, 0), (2, 0)])
        coalescer = DeltaCoalescer()
        for key in ((1,), (2,)):
            coalescer.absorb(
                db.execute(UpdateStatement("t", {"v": 9}, keys=[key]), fire_triggers=False)
            )
        (delta,) = coalescer.deltas()
        assert delta.statements == 2 and delta.rowcount == 2
