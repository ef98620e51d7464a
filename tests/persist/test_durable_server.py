"""DurableServer: crash recovery, outbox redelivery, cursors, compaction."""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError
from repro.persist import DurableServer
from repro.persist import durable as durable_module
from repro.relational import Column, DataType, ForeignKey, TableSchema
from repro.relational.dml import UpdateStatement
from repro.xqgm.views import catalog_view

from tests.conftest import PRODUCTS, VENDORS
from tests.serving.conftest import by_product

WATCH_ALL = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
)


def open_server(directory, shard_count=2) -> DurableServer:
    return DurableServer(
        directory,
        shard_count=shard_count,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"notify": lambda node: None},
    )


def populate(server: DurableServer) -> None:
    db = server.sharded
    db.create_table(
        TableSchema(
            "product",
            [Column("pid", DataType.TEXT, nullable=False),
             Column("pname", DataType.TEXT, nullable=False),
             Column("mfr", DataType.TEXT)],
            primary_key=["pid"],
        )
    )
    db.create_table(
        TableSchema(
            "vendor",
            [Column("vid", DataType.TEXT, nullable=False),
             Column("pid", DataType.TEXT, nullable=False),
             Column("price", DataType.REAL, nullable=False)],
            primary_key=["vid", "pid"],
            foreign_keys=[ForeignKey(("pid",), "product", ("pid",))],
        )
    )
    db.load_rows("product", PRODUCTS)
    db.load_rows("vendor", VENDORS)
    server.ensure_view(catalog_view())
    server.ensure_trigger(WATCH_ALL)


def test_crash_recovery_restores_state_and_redelivers(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")]))
        server.execute(UpdateStatement("vendor", {"price": 199.0}, keys=[("Buy.com", "P2")]))
    delivered = inbox.drain()
    assert len(delivered) == 2
    inbox.ack(delivered[0])  # consume one, crash before the other is acked
    pre_crash = server.sharded.snapshot()
    # Crash: no close(), no snapshot() — the files are whatever hit disk.

    recovered = open_server(tmp_path)
    assert recovered.sharded.snapshot() == pre_crash
    assert [trigger.name for trigger in recovered.server.triggers] == ["W"]
    inbox2 = recovered.subscribe("inbox", capacity=64)
    assert recovered.redelivered == {"inbox": 1}
    backlog = inbox2.drain()
    assert [(a.shard, a.sequence, a.key) for a in backlog] == [
        (delivered[1].shard, delivered[1].sequence, delivered[1].key)
    ]
    # Redelivered activations carry usable nodes.
    assert backlog[0].new_node.attribute("name") == delivered[1].new_node.attribute("name")
    recovered.close()


def test_sequences_continue_across_restart(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    first = server.server.sequences
    recovered = open_server(tmp_path)
    assert recovered.server.sequences == first
    with recovered:
        recovered.execute(UpdateStatement("vendor", {"price": 11.0}, keys=[("Amazon", "P1")]))
    assert sum(recovered.server.sequences) == sum(first) + 1
    recovered.close()


def test_new_subscriber_does_not_get_history(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    recovered = open_server(tmp_path)
    latecomer = recovered.subscribe("latecomer", capacity=16)
    assert latecomer.drain() == []
    recovered.close()


def test_resubscribe_mid_process_gets_backlog(tmp_path):
    """A known name that re-subscribes in the SAME process must still receive
    every accepted-but-unacked activation produced while it was away."""
    server = open_server(tmp_path)
    populate(server)
    first = server.subscribe("inbox", capacity=64)
    server.server.unsubscribe(first)  # client disconnects
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
        server.execute(UpdateStatement("vendor", {"price": 11.0}, keys=[("Amazon", "P1")]))
    returned = server.subscribe("inbox", capacity=64)
    assert server.redelivered["inbox"] == 2
    backlog = returned.drain()
    assert [a.sequence for a in backlog] == sorted(a.sequence for a in backlog)
    assert len(backlog) == 2
    server.close()


def test_snapshot_compacts_outbox_and_wals(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    for activation in inbox.drain():
        inbox.ack(activation)
    server.snapshot()
    assert server.wals[0].byte_size == 0 and server.wals[1].byte_size == 0
    server.close()

    recovered = open_server(tmp_path)
    inbox2 = recovered.subscribe("inbox", capacity=64)
    assert recovered.redelivered == {"inbox": 0}
    assert inbox2.drain() == []
    # State and registry still fully there, from the snapshot alone.
    assert recovered.sharded.row_count("vendor") == len(VENDORS)
    assert [trigger.name for trigger in recovered.server.triggers] == ["W"]
    recovered.close()


def test_unacked_activation_survives_snapshot(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    server.snapshot()  # nothing acked -> the activation must be retained
    server.close()
    recovered = open_server(tmp_path)
    inbox = recovered.subscribe("inbox", capacity=64)
    assert recovered.redelivered == {"inbox": 1}
    assert len(inbox.drain()) == 1
    recovered.close()


def test_snapshot_with_no_subscribers_drops_outbox(tmp_path):
    """With no subscriber cursors at all, retained outbox entries could never
    be consumed by anyone — compaction must drop them, not keep them forever."""
    server = open_server(tmp_path)
    populate(server)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    assert len(server._pending) == 1
    server.snapshot()
    assert server._pending == []
    server.close()
    recovered = open_server(tmp_path)
    assert recovered._pending == []
    # Sequence numbering still continues past the dropped entries.
    with recovered:
        recovered.execute(UpdateStatement("vendor", {"price": 11.0}, keys=[("Amazon", "P1")]))
    assert max(recovered.server.sequences) == 2
    recovered.close()


def test_outbox_pending_counts_what_someone_has_not_acked(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    audit = server.subscribe("audit", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
        server.execute(UpdateStatement("vendor", {"price": 20.0}, keys=[("Amazon", "P1")]))
    first, second = inbox.drain()
    inbox.ack(second)
    assert server.durability_report()["outbox_pending"] == 2  # audit acked nothing
    audit.ack(first)
    assert server.durability_report()["outbox_pending"] == 1
    audit.ack(second)
    assert server.durability_report()["outbox_pending"] == 0
    server.close()


def test_ack_that_does_not_move_the_cursor_is_not_persisted(tmp_path):
    """A repeated ack (every duplicate after a redelivery is one) used to
    append a record all the same, growing cursors.log for nothing."""
    server = open_server(tmp_path, shard_count=1)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
        server.execute(UpdateStatement("vendor", {"price": 20.0}, keys=[("Amazon", "P1")]))
    first, second = inbox.drain()
    inbox.ack(second)
    size = server.cursors.byte_size
    inbox.ack(second)
    inbox.ack(first)
    assert server.cursors.byte_size == size
    # Crash: a fresh open still sees the cursor where the one real ack put it.
    recovered = open_server(tmp_path, shard_count=1)
    assert recovered.durability_report()["cursors"] == {"inbox": {0: second.sequence}}
    assert recovered.subscribe("inbox", capacity=64).drain() == []
    recovered.close()
    server.close()


def test_crash_redelivers_exactly_the_unacked_after_acks_trimmed_the_mirror(
    tmp_path, monkeypatch
):
    """Differential against the cursors: the in-memory outbox forgets what
    every subscriber has acked while the server runs, and a resumed
    subscriber still gets exactly what *its* cursor has not covered —
    nothing above the slower of two cursors is ever dropped."""
    monkeypatch.setattr(durable_module, "PENDING_RECHECK", 4)
    server = open_server(tmp_path)
    populate(server)
    fast = server.subscribe("fast", capacity=256)
    slow = server.subscribe("slow", capacity=256)
    stream = []
    slow_acks = 7
    with server:
        for step in range(24):
            key = (("Amazon", "P1"), ("Buy.com", "P2"))[step % 2]
            server.execute(UpdateStatement("vendor", {"price": 300.0 + step}, keys=[key]))
            for activation in fast.drain():
                stream.append(activation)
                fast.ack(activation)
            for activation in slow.drain():
                if slow_acks:
                    slow_acks -= 1
                    slow.ack(activation)
    assert len(stream) == 24

    def position(activation):
        return activation.shard, activation.sequence

    cursor = slow.acked
    unacked = [position(a) for a in stream if a.sequence > cursor.get(a.shard, 0)]
    assert len(unacked) == 24 - 7
    mirror = [position(a) for a in server._pending]
    assert len(mirror) < len(stream)  # acked-by-both entries were forgotten ...
    assert set(unacked) <= set(mirror)  # ... and nothing slow still needs
    assert server.durability_report()["outbox_pending"] == len(unacked)
    # Crash: no close(), no snapshot().

    recovered = open_server(tmp_path)
    assert recovered.durability_report()["outbox_pending"] == len(unacked)
    resumed = recovered.subscribe("slow", capacity=256)
    assert sorted(position(a) for a in resumed.drain()) == sorted(unacked)
    assert recovered.subscribe("fast", capacity=256).drain() == []
    assert recovered.redelivered == {"slow": len(unacked), "fast": 0}
    recovered.close()


def test_sequences_survive_outbox_compaction_crash_window(tmp_path):
    """Crash after outbox compaction but before the cursor rewrite: the ack
    cursors alone must keep the sequence floor, or new activations would be
    renumbered into already-acked territory and silently dropped."""
    server = open_server(tmp_path)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    for activation in inbox.drain():
        inbox.ack(activation)
    before = server.server.sequences
    # Emulate the torn snapshot: outbox compacted, cursor log NOT rewritten.
    server.outbox.rewrite([])
    # crash (no close)
    recovered = open_server(tmp_path)
    assert recovered.server.sequences == before
    inbox2 = recovered.subscribe("inbox", capacity=64)
    with recovered:
        recovered.execute(UpdateStatement("vendor", {"price": 11.0}, keys=[("Amazon", "P1")]))
    fresh = inbox2.drain()
    assert len(fresh) == 1 and fresh[0].sequence == before[fresh[0].shard] + 1
    recovered.close()


def test_harness_durable_dir_is_reusable(tmp_path):
    """build_setup(durable_dir=...) must reset a previously used directory —
    stale WAL records behind a fresh snapshot would corrupt recovery."""
    from repro.core.service import ExecutionMode
    from repro.persist import recover_database
    from repro.workloads import ExperimentHarness, WorkloadParameters

    params = WorkloadParameters(depth=2, leaf_tuples=64, fanout=16,
                                num_triggers=4, satisfied_triggers=2, seed=1)
    harness = ExperimentHarness(params, updates=1)
    directory = str(tmp_path / "node")
    for _ in range(2):  # second pass reuses the same directory
        setup = harness.build_setup(params, ExecutionMode.GROUPED_AGG,
                                    durable_dir=directory)
        for statement in setup.workload.update_statements(5, setup.database):
            setup.run_statement(statement)
        recovered, wal = recover_database(directory)
        assert recovered.snapshot() == setup.database.snapshot()
        wal.close()
        setup.wal.close()


def test_shard_count_mismatch_is_rejected(tmp_path):
    open_server(tmp_path, shard_count=2).close()
    with pytest.raises(PersistenceError):
        open_server(tmp_path, shard_count=4)


def test_redelivery_backlog_must_fit_capacity(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    server.subscribe("inbox", capacity=64)
    with server:
        for price in (10.0, 11.0, 12.0):
            server.execute(UpdateStatement("vendor", {"price": price}, keys=[("Amazon", "P1")]))
    recovered = open_server(tmp_path)
    with pytest.raises(PersistenceError):
        recovered.subscribe("inbox", capacity=2)
    recovered.close()


def test_torn_outbox_tail_is_ignored(tmp_path):
    server = open_server(tmp_path)
    populate(server)
    server.subscribe("inbox", capacity=64)
    with server:
        server.execute(UpdateStatement("vendor", {"price": 10.0}, keys=[("Amazon", "P1")]))
    with open(tmp_path / "outbox.log", "ab") as handle:
        handle.write(b"\x00\x00\x01\x00torn")
    recovered = open_server(tmp_path)
    inbox = recovered.subscribe("inbox", capacity=64)
    assert len(inbox.drain()) == 1
    recovered.close()


def test_failed_outbox_append_drops_the_bundle_and_leaves_a_gap(tmp_path, monkeypatch):
    """A bundle the outbox could not take is offered to nobody: its statements
    are applied, their tickets carry the write error, and its sequence
    numbers stay consumed — a gap, never a position with two meanings."""
    server = open_server(tmp_path, shard_count=1)
    populate(server)
    inbox = server.subscribe("inbox", capacity=64)
    server.start()

    def price(value):
        return UpdateStatement("vendor", {"price": value}, keys=[("Amazon", "P1")])

    def disk_full(frame):
        raise OSError("disk full")

    server.execute(price(10.0))
    with monkeypatch.context() as patch:
        patch.setattr(server.outbox, "append_frame", disk_full)
        with pytest.raises(OSError, match="disk full"):
            server.execute(price(20.0))
    server.execute(price(30.0))
    server.drain()
    first, third = inbox.drain()
    assert (first.sequence, third.sequence) == (1, 3)
    assert server.durability_report()["accepted"] == {0: 3}
    # Crash: the reopened server redelivers the same two and numbers on from 3.
    recovered = open_server(tmp_path, shard_count=1)
    assert [a.sequence for a in recovered.subscribe("inbox", capacity=64).drain()] == [1, 3]
    with recovered:
        recovered.execute(price(40.0))
    assert recovered.durability_report()["accepted"] == {0: 4}
    recovered.close()
    server.close()
