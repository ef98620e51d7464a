"""Counters as each surface reports them.

* A front end keeps its wake-up counters in its ``counters`` dict, beside
  every other wire counter, so they keep counting across stop/start as the
  others do.
* ``evaluation_report()`` reads the same on the server, in the TCP ``stats``
  reply and in ``GET /v1/stats``: every key, the plan-cache and matching
  ones included.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.matching import MATCH_COUNTERS
from repro.persist import DurableServer
from repro.relational.dml import UpdateStatement
from repro.serving import ActiveViewServer
from repro.serving.net import NetClient, NetworkServer
from repro.serving.web import WebClient, WebGateway
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

WATCH_ALL = (
    "CREATE TRIGGER W AFTER UPDATE ON view('catalog')/product DO notify(NEW_NODE)"
)
CRT_ONLY = (
    "CREATE TRIGGER Crt AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)"
)
UPDATE = UpdateStatement("vendor", {"price": 75.0}, keys=[("Amazon", "P1")])

#: transport -> (front end, client, the client's one-statement call, report)
TRANSPORTS = {
    "tcp": (NetworkServer, NetClient, "execute", "net_report"),
    "web": (WebGateway, WebClient, "submit", "web_report"),
}


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_wake_counters_keep_counting_across_stop_and_start(transport):
    front_end, client_class, call, report_name = TRANSPORTS[transport]
    server = ActiveViewServer(build_sharded_paper_database(2))
    server.register_view(catalog_view())
    server.register_action("notify", lambda node: None)
    server.start()
    front = front_end(server).start()

    def counts() -> tuple[int, int, int]:
        report = getattr(front, report_name)()
        return report["wake_posts"], report["wake_wakeups"], report["statements_submitted"]

    try:
        host, port = front.address

        async def one_statement():
            async with await client_class.connect(host, port) as client:
                await getattr(client, call)(UPDATE)

        asyncio.run(one_statement())
        running = counts()
        assert running[0] >= 1 and running[1] >= 1 and running[2] == 1
        front.stop()
        assert counts() == running
        front.start()
        assert counts() == running
    finally:
        front.stop()
        server.stop()


def test_evaluation_report_reads_the_same_on_every_surface(tmp_path):
    durable = DurableServer(
        tmp_path,
        shard_count=2,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"notify": lambda node: None},
    )
    reference = build_sharded_paper_database(1)
    for table in reference.table_names():
        durable.sharded.create_table(reference.schema(table))
    snapshot = reference.snapshot()
    durable.sharded.load_rows("product", snapshot["product"])
    durable.sharded.load_rows("vendor", snapshot["vendor"])
    durable.ensure_view(catalog_view())
    durable.ensure_trigger(WATCH_ALL)
    durable.ensure_trigger(CRT_ONLY)
    durable.start()
    net = NetworkServer(durable).start()
    web = WebGateway(durable).start()
    try:
        for price in (75.0, 80.0, 85.0):
            durable.execute(
                UpdateStatement("vendor", {"price": price}, keys=[("Amazon", "P1")])
            )
        durable.drain()

        async def read_stats():
            async with await NetClient.connect(*net.address) as tcp:
                over_tcp = (await tcp.stats())["evaluation"]
            async with await WebClient.connect(*web.address) as rest:
                over_rest = (await rest.stats())["evaluation"]
            return over_tcp, over_rest

        over_tcp, over_rest = asyncio.run(read_stats())
        in_process = durable.server.evaluation_report()
    finally:
        web.stop()
        net.stop()
        durable.close()

    assert over_tcp == in_process
    assert over_rest == in_process
    for key in ("plan_cache_hits", "plan_cache_misses", "backend_statements", *MATCH_COUNTERS):
        assert key in in_process, key
    # Two shards share one plan cache: each structure compiles once.
    assert in_process["plan_cache_misses"] >= 1 and in_process["plan_cache_hits"] >= 1
    assert in_process["matching_probes"] == 3
