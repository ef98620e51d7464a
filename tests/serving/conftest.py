"""Shared helpers for the serving-layer tests: a sharded paper database and a
sibling-trigger hierarchy behind a durable server."""

from __future__ import annotations

import importlib

import pytest

from repro.persist import DurableServer
from repro.relational import Column, DataType, ForeignKey, ShardedDatabase, TableSchema
from repro.relational.dml import UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters

from tests.conftest import PRODUCTS, VENDORS


def by_product(table: str, key: tuple | None):
    """Routing key: co-locate each product with all of its vendor rows.

    This makes any sharding of the paper database *view-closed* for the
    catalog view — a product node and its whole vendor group always live on
    one shard (the contract documented in ``repro.relational.sharded``).
    """
    if table == "vendor" and key is not None:
        return key[1]  # (vid, pid) -> pid
    return key[0] if key is not None else table


def build_sharded_paper_database(shard_count: int) -> ShardedDatabase:
    """The Figure 2 product/vendor database partitioned by product."""
    db = ShardedDatabase(shard_count, name="paper", key_fn=by_product)
    db.create_table(
        TableSchema(
            "product",
            [
                Column("pid", DataType.TEXT, nullable=False),
                Column("pname", DataType.TEXT, nullable=False),
                Column("mfr", DataType.TEXT),
            ],
            primary_key=["pid"],
        )
    )
    db.create_table(
        TableSchema(
            "vendor",
            [
                Column("vid", DataType.TEXT, nullable=False),
                Column("pid", DataType.TEXT, nullable=False),
                Column("price", DataType.REAL, nullable=False),
            ],
            primary_key=["vid", "pid"],
            foreign_keys=[ForeignKey(("pid",), "product", ("pid",))],
        )
    )
    db.load_rows("product", PRODUCTS)
    db.load_rows("vendor", VENDORS)
    db.create_index("vendor", ["pid"])
    return db


@pytest.fixture
def sharded_paper_db() -> ShardedDatabase:
    """Two-shard copy of the paper database, partitioned by product."""
    return build_sharded_paper_database(2)


# ------------------------------------------------------------------ sibling-trigger hierarchy

#: Sibling triggers per monitored top element — every UPDATE under a top
#: fires this many structurally similar triggers on one (OLD, NEW) pair.
SIBLINGS = 8


def sibling_hierarchy(tops: int = 64, fanout: int = 4) -> HierarchyWorkload:
    """A depth-2 hierarchy small enough for tier-1, ``tops`` monitored nodes."""
    return HierarchyWorkload(
        WorkloadParameters(depth=2, leaf_tuples=tops * fanout, fanout=fanout, seed=7)
    )


def sibling_triggers(workload: HierarchyWorkload) -> list[str]:
    """``SIBLINGS`` equality triggers on every top element of ``workload``."""
    params = workload.parameters
    return [
        f"CREATE TRIGGER t{top}_{sibling} AFTER UPDATE "
        f"ON view('{params.view_name}')/{workload.level_element(0)} "
        f"WHERE OLD_NODE/@name = '{workload.top_name(top)}' DO collect(NEW_NODE)"
        for top in range(1, params.top_elements + 1)
        for sibling in range(SIBLINGS)
    ]


def open_sibling_durable(
    directory, workload: HierarchyWorkload, shard_count: int, collect=lambda node: None
) -> DurableServer:
    """Open (or recover) the durable stack over ``workload``'s view."""
    return DurableServer(
        directory,
        shard_count=shard_count,
        key_fn=workload.routing_key_fn(),
        views=[workload.build_view()],
        actions={"collect": collect},
    )


def load_sibling_durable(durable: DurableServer, workload: HierarchyWorkload) -> None:
    """Create and fill the tables, register the view and the sibling triggers."""
    workload._populate(durable.sharded)
    durable.ensure_view(workload.build_view())
    durable.server.register_triggers_bulk(sibling_triggers(workload))


def price_update(workload: HierarchyWorkload, top: int, price: float) -> UpdateStatement:
    """Reprice the first leaf under ``top`` (one affected node, ``SIBLINGS`` firings)."""
    leaf = workload.leaf_ids_by_top()[top][0]
    return UpdateStatement("leaf", {"price": price}, keys=[(leaf,)])


def stream_position(activation) -> tuple:
    """What a delivered stream is compared on: position, trigger, key, node texts."""
    encoded = activation.encoded
    return (
        activation.shard, activation.sequence, activation.trigger, activation.key,
        encoded.old_text, encoded.new_text,
    )


@pytest.fixture
def serialize_calls(monkeypatch) -> dict:
    """``{"serialize": n}``: calls of ``xmlmodel.serialize`` during the test.

    Patches the *module* attribute (the package attribute of the same name
    is the function itself).
    """
    module = importlib.import_module("repro.xmlmodel.serialize")
    calls = {"serialize": 0}
    original = module.serialize

    def counting_serialize(node, **options):
        calls["serialize"] += 1
        return original(node, **options)

    monkeypatch.setattr(module, "serialize", counting_serialize)
    return calls
