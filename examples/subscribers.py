"""Networked serving end to end: durable cursors and crash-resume, twice.

Puts a :class:`~repro.persist.DurableServer` on the paper's product/vendor
example behind each front end in turn and walks the same client story over
real sockets — first the TCP front end (:mod:`repro.serving.net`, CRC-checked
binary frames), then the web gateway (:mod:`repro.serving.web`, HTTP/1.1
requests and RFC 6455 WebSocket frames carrying JSON).  The subscriber side
is the same client session on both (``NetClient`` / ``WsClient``); only the
admin connection differs (``NetClient`` itself over TCP, ``WebClient`` REST
calls on the web side):

1. start the durable server + its front end, create the price-watch
   trigger from the admin connection;
2. open a **named durable subscription** and an anonymous filtered one
   (``path=["product"]``), submit updates (single and batched) from the
   admin connection, and watch both streams receive the activations;
3. **crash the consumer** mid-stream — kill its socket with activations
   consumed but not acked — then resubscribe under the same name: the
   durable cursor redelivers exactly the unacked tail, at-least-once,
   per-shard ordered;
4. print the front end's accounting (the admin connection's ``stats``).

Run with:  PYTHONPATH=src python examples/subscribers.py
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
from repro.serving.web import WebClient, WebGateway, WsClient
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

#: ``(title, front end, admin client, subscriber client, admin's submit and
#: submit-batch methods, stats section)`` — everything that differs.
TRANSPORTS = [
    ("TCP", NetworkServer, NetClient, NetClient, "execute", "execute_batch", "net"),
    ("REST + WebSocket", WebGateway, WebClient, WsClient, "submit", "submit_batch", "web"),
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


async def run_clients(host, port, admin_client, subscriber_client,
                      submit, submit_batch, section) -> None:
    # ---- 1. trigger DDL from the admin connection -------------------------
    async with await admin_client.connect(host, port) as admin:
        name = await admin.create_trigger("""
            CREATE TRIGGER PriceWatch AFTER UPDATE ON view('catalog')/product
            DO notify(NEW_NODE)
        """)
        bulk = await admin.register_triggers_bulk(["""
            CREATE TRIGGER NewProduct AFTER INSERT ON view('catalog')/product
            DO notify(NEW_NODE)
        """])
        print(f"registered triggers: {name!r} + {bulk}")

        # ---- 2. one durable consumer, one anonymous filtered one ----------
        consumer = await subscriber_client.connect(host, port)
        inbox = await consumer.subscribe("inbox")
        assert inbox.durable, "expected a durable cursor-backed stream"

        watcher = await subscriber_client.connect(host, port)
        watching = await watcher.subscribe(view="catalog", path=["product"])

        await getattr(admin, submit)(UpdateStatement(
            "vendor", {"price": 75.0}, keys=[("Amazon", "P1")]))
        # The batch: a price update plus a brand-new product.  P3 enters the
        # view (and fires NewProduct) only once its *second* vendor lands —
        # the catalog view keeps the paper's HAVING count(vendor) >= 2.
        await getattr(admin, submit_batch)([
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

        revived = await subscriber_client.connect(host, port)
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
        print(f"resubscribed as 'inbox': {len(redelivered)} unacked "
              f"activation(s) redelivered from the durable cursor:")
        for activation in redelivered:
            print(f"  [{activation.shard}:{activation.sequence}] "
                  f"{activation.trigger} key={activation.key}")
        unacked = {(a.shard, a.sequence) for a in consumed[1:]}
        assert unacked <= {(a.shard, a.sequence) for a in redelivered}

        # ---- 4. front-end accounting --------------------------------------
        await revived.close()
        await watcher.close()
        stats = await admin.stats()
        front = stats[section]
        print(f"front end: {front['connections_opened']} connections, "
              f"{front['activations_sent']} activations pushed, "
              f"{front['protocol_errors']} protocol errors")
        assert stats["activations_published"] == 3


def main() -> None:
    for title, front_end, admin_client, subscriber_client, *calls in TRANSPORTS:
        directory = Path(tempfile.mkdtemp(prefix="subscribers-"))
        try:
            server = open_server(directory)
            server.start()
            front = front_end(server).start()  # one event loop on a daemon thread
            host, port = front.address
            print(f"== {title}: front end listening on {host}:{port}")
            try:
                asyncio.run(run_clients(
                    host, port, admin_client, subscriber_client, *calls))
            finally:
                front.stop()
                server.stop()
                server.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
