"""Networked serving end to end: TCP clients, durable cursors, crash-resume.

Puts the asyncio front end (:mod:`repro.serving.net`) over a
:class:`~repro.persist.DurableServer` on the paper's product/vendor example
and walks the full client story — everything below travels over a real TCP
socket as CRC-checked frames:

1. start the durable server + :class:`~repro.serving.net.NetworkServer`,
   create the price-watch trigger *over the wire* with
   :meth:`NetClient.create_trigger`;
2. open a second client holding a **named durable subscription** and a third
   holding an anonymous filtered one (``path=["product"]``), submit
   updates (single and batched) from the first client, and watch both
   subscribers receive the activations;
3. **crash the consumer** mid-stream — kill its connection with activations
   consumed but not acked — then reconnect under the same subscription name:
   the durable cursor redelivers exactly the unacked tail, at-least-once,
   per-shard ordered;
4. print the server's wire-level accounting (``stats`` frame).

Run with:  PYTHONPATH=src python examples/network_subscribers.py
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

from repro.persist import DurableServer
from repro.relational import Column, DataType, ForeignKey, TableSchema
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.serving.net import NetClient, NetworkServer
from repro.xqgm.views import catalog_view

PRODUCTS = [
    {"pid": "P1", "pname": "CRT 15", "mfr": "Samsung"},
    {"pid": "P2", "pname": "LCD 19", "mfr": "Samsung"},
]
VENDORS = [
    {"vid": "Amazon", "pid": "P1", "price": 100.0},
    {"vid": "Bestbuy", "pid": "P1", "price": 120.0},
    {"vid": "Buy.com", "pid": "P2", "price": 200.0},
    {"vid": "Bestbuy", "pid": "P2", "price": 180.0},
]


def by_product(table: str, key: tuple | None):
    """Routing key: co-locate each product with its vendors (view-closure)."""
    if table == "vendor" and key is not None:
        return key[1]
    return key[0] if key is not None else table


def open_server(directory: Path) -> DurableServer:
    server = DurableServer(
        directory,
        shard_count=2,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"notify": lambda node: None},
    )
    db = server.sharded
    if "product" not in db.table_names():
        db.create_table(TableSchema(
            "product",
            [Column("pid", DataType.TEXT, nullable=False),
             Column("pname", DataType.TEXT, nullable=False),
             Column("mfr", DataType.TEXT)],
            primary_key=["pid"],
        ))
        db.create_table(TableSchema(
            "vendor",
            [Column("vid", DataType.TEXT, nullable=False),
             Column("pid", DataType.TEXT, nullable=False),
             Column("price", DataType.REAL, nullable=False)],
            primary_key=["vid", "pid"],
            foreign_keys=[ForeignKey(("pid",), "product", ("pid",))],
        ))
        db.load_rows("product", PRODUCTS)
        db.load_rows("vendor", VENDORS)
    server.ensure_view(catalog_view())
    return server


async def run_clients(host: str, port: int) -> None:
    # ---- 1. DDL over the wire ---------------------------------------------
    async with await NetClient.connect(host, port) as admin:
        name = await admin.create_trigger("""
            CREATE TRIGGER PriceWatch AFTER UPDATE ON view('catalog')/product
            DO notify(NEW_NODE)
        """)
        bulk = await admin.register_triggers_bulk(["""
            CREATE TRIGGER NewProduct AFTER INSERT ON view('catalog')/product
            DO notify(NEW_NODE)
        """])
        print(f"registered triggers over the wire: {name!r} + {bulk}")

        # ---- 2. one durable consumer, one anonymous filtered one ----------
        consumer = await NetClient.connect(host, port)
        inbox = await consumer.subscribe("inbox")
        assert inbox.durable, "expected a durable cursor-backed stream"

        watcher = await NetClient.connect(host, port)
        watching = await watcher.subscribe(view="catalog", path=["product"])

        await admin.execute(UpdateStatement(
            "vendor", {"price": 75.0}, keys=[("Amazon", "P1")]))
        # The batch: a price update plus a brand-new product.  P3 enters the
        # view (and fires NewProduct) only once its *second* vendor lands —
        # the catalog view keeps the paper's HAVING count(vendor) >= 2.
        await admin.execute_batch([
            UpdateStatement("vendor", {"price": 190.0}, keys=[("Buy.com", "P2")]),
            InsertStatement("product",
                            [{"pid": "P3", "pname": "Plasma 42", "mfr": "LG"}]),
            InsertStatement("vendor",
                            [{"vid": "Newegg", "pid": "P3", "price": 520.0},
                             {"vid": "Amazon", "pid": "P3", "price": 499.0}]),
        ])

        # Both subscribers see all three activations (filter matches the
        # view's /product nodes).
        seen = [await watching.get(timeout=10) for _ in range(3)]
        print(f"anonymous subscriber saw {len(seen)} activations through "
              f"its path filter")

        # ---- 3. consume 3, ack 1, crash, resume ---------------------------
        consumed = [await inbox.get(timeout=10) for _ in range(3)]
        await consumer.ack(consumed[0])
        await consumer.ping()  # flush the ack before dying
        print(f"consumer acked [{consumed[0].shard}:{consumed[0].sequence}] "
              f"{consumed[0].trigger}, crashing with 2 unacked")
        consumer._writer.transport.abort()  # the crash: no goodbye, no acks
        await consumer.close()

        revived = await NetClient.connect(host, port)
        resumed = await revived.subscribe("inbox")
        redelivered = []
        while True:
            try:
                activation = await resumed.get(timeout=1.0)
            except asyncio.TimeoutError:
                break
            if activation is None:
                break
            redelivered.append(activation)
            await revived.ack(activation)
        print(f"reconnected as 'inbox': {len(redelivered)} unacked "
              f"activation(s) redelivered from the durable cursor:")
        for activation in redelivered:
            print(f"  [{activation.shard}:{activation.sequence}] "
                  f"{activation.trigger} key={activation.key}")
        unacked = {(a.shard, a.sequence) for a in consumed[1:]}
        assert unacked <= {(a.shard, a.sequence) for a in redelivered}

        # ---- 4. wire-level accounting -------------------------------------
        stats = await revived.stats()
        net = stats["net"]
        print(f"server: {net['connections_opened']} connections, "
              f"{net['frames_received']} frames in / {net['frames_sent']} out, "
              f"{net['activations_sent']} activations pushed, "
              f"{net['protocol_errors']} protocol errors")
        assert stats["activations_published"] == 3

        await revived.close()
        await watcher.close()


def main() -> None:
    directory = Path(tempfile.mkdtemp(prefix="net-subscribers-"))
    try:
        server = open_server(directory)
        server.start()
        net = NetworkServer(server).start()  # one event loop on a daemon thread
        host, port = net.address
        print(f"network front end listening on {host}:{port}")
        try:
            asyncio.run(run_clients(host, port))
        finally:
            net.stop()
            server.stop()
            server.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
