"""The request layer both front ends answer with: DML, trigger DDL, stats.

The TCP ``submit`` / ``ddl`` / ``stats`` handlers and the gateway's REST
routes differ only in how a request arrives and how its reply is framed;
what happens in between lives here once.  Malformed input raises
:class:`~repro.errors.ProtocolError` (each transport answers with its own
bad-input code); anything the serving stack raises propagates unchanged.

Statements go from the loop straight onto the shard queues
(:meth:`~repro.serving.server.ActiveViewServer.try_submit`), so a burst a
client pipelines is on the queues — and runs as one micro-batch — by the
time the shard worker next looks.  A thread hop per statement would let
the worker's whole chunk run in between (one thread at a time executes
Python), admitting one statement per chunk.  Only a full shard queue sends
that one statement to the blocking enqueue on a worker thread, which blocks
the submitting request and nothing else; completion travels back through
ticket done-callbacks and the loop's
:class:`~repro.serving.net.session.WakeHub` into a loop future
(:func:`ticket_results`) — one wake-up per micro-batch.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.errors import ProtocolError
from repro.persist.durable import DurableServer
from repro.serving.net.protocol import result_to_wire, statement_from_wire
from repro.serving.net.session import WakeHub
from repro.serving.server import ActiveViewServer, Ticket

__all__ = ["run_ddl", "stats_body", "submit", "ticket_results"]


async def submit(core: ActiveViewServer, records: Any) -> list[Ticket]:
    """Decode a request's statement records and enqueue them, one ticket each.

    In arrival order and, while the shard queues have room, without
    yielding.  A full queue is this request's backpressure: it waits for
    room on a worker thread, never on the shared event loop.
    """
    if not isinstance(records, list) or not records:
        raise ProtocolError("'statements' must be a non-empty list")
    tickets = []
    for statement in [statement_from_wire(record) for record in records]:
        ticket = core.try_submit(statement)
        if ticket is None:
            ticket = await asyncio.to_thread(core.submit, statement)
        tickets.append(ticket)
    return tickets


def ticket_results(
    tickets: list[Ticket], hub: WakeHub
) -> "asyncio.Future[list[list[dict]]]":
    """A loop future for the tickets' per-statement wire results.

    Done-callbacks run on shard worker threads; the last one posts the
    fully-resolved set to the calling loop's ``hub``, where the
    completions of one micro-batch (and its activations) share a wake-up.
    The future fails with the first statement's execution error, if any.
    """
    future: asyncio.Future = asyncio.get_running_loop().create_future()
    lock = threading.Lock()
    remaining = len(tickets)

    def resolve() -> None:  # loop thread
        if future.done():
            return  # the waiter gave up (timeout) — nobody to tell
        try:
            results = []
            for ticket in tickets:
                outcome = ticket.result(timeout=0)
                parts = outcome if isinstance(outcome, list) else [outcome]
                results.append([result_to_wire(part) for part in parts])
        except Exception as error:  # noqa: BLE001 - forwarded to the client
            future.set_exception(error)
        else:
            future.set_result(results)

    def one_done(_ticket: Ticket) -> None:
        nonlocal remaining
        with lock:
            remaining -= 1
            if remaining:
                return
        hub.post(resolve)  # a loop that is gone has nobody to tell

    for ticket in tickets:
        ticket.add_done_callback(one_done)
    return future


async def run_ddl(core: ActiveViewServer, op: Any, message: dict) -> list[str]:
    """Run one trigger/view DDL operation; returns the names it touched."""
    if op == "create_trigger":
        source = message.get("source")
        if not isinstance(source, str):
            raise ProtocolError("create_trigger needs a 'source' string")
        return [(await asyncio.to_thread(core.create_trigger, source)).name]
    if op == "register_triggers_bulk":
        sources = message.get("sources")
        if (not isinstance(sources, list)
                or not all(isinstance(s, str) for s in sources)):
            raise ProtocolError(
                "register_triggers_bulk needs a 'sources' string list"
            )
        specs = await asyncio.to_thread(core.register_triggers_bulk, sources)
        return [spec.name for spec in specs]
    if op in ("drop_trigger", "drop_view"):
        name = message.get("name")
        if not isinstance(name, str):
            raise ProtocolError(f"{op} needs a 'name' string")
        target = core.drop_trigger if op == "drop_trigger" else core.drop_view
        await asyncio.to_thread(target, name)
        return [name]
    raise ProtocolError(f"unknown ddl op {op!r}")


def stats_body(
    core: ActiveViewServer, durable: DurableServer | None, **front: dict
) -> dict:
    """The stats reply body; ``front`` is the transport's own report."""
    body = {
        "evaluation": {
            str(k): int(v) for k, v in core.evaluation_report().items()
        },
        "shards": [stats.as_dict() for stats in core.stats],
        "queues": core.queue_depths,
        "activations_published": core.activations_published,
        **front,
    }
    if durable is not None:
        body["durability"] = durable.durability_report()
    return body
