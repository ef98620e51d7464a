"""Property-based crash simulation: kill-and-recover equivalence.

For a random workload interrupted after a random prefix (i.e. at a random
WAL position — each acknowledged statement appends exactly one record per
touched shard), recovering a :class:`repro.persist.DurableServer` from the
on-disk files must reproduce

* **exactly** the pre-crash table state of a sequential oracle that executed
  the same prefix (snapshot + WAL replay, triggers suppressed),
* the full trigger registry,
* and **every activation that was accepted but not acknowledged** at crash
  time: the durable outbox redelivers them after restart, in per-shard
  order, so ``acked ∪ redelivered`` equals the oracle's activation multiset
  — at-least-once, nothing lost.

A randomly injected *torn tail* (garbage appended to a WAL and the outbox,
simulating a crash mid-append) must not change any of the above: torn
records correspond to work that was never acknowledged.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, strategies as st

from repro.persist import DurableServer
from repro.xqgm.views import catalog_view

from tests.property.differential import (
    COMPILED,
    KINDS,
    ORACLE,
    budget,
    catalog,
    catalog_actions,
    catalog_sharded,
    catalog_steps,
    fired,
    replay,
    tables,
)
from tests.serving.conftest import by_product

TRIGGERS = [
    "CREATE TRIGGER UpdAny AFTER UPDATE ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]
#: Two shards split the products: a rename could merge elements across them.
_KINDS = [kind for kind in KINDS if kind != "rename_product"]


def _signature(activation):
    return activation.trigger, activation.event.value, activation.key


def _open(directory: Path) -> DurableServer:
    return DurableServer(
        directory,
        shard_count=2,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"sink": lambda value: None},
    )


@budget(10)
@given(
    actions=st.lists(catalog_actions(_KINDS), min_size=1, max_size=10),
    prefix=st.integers(0, 10),
    acked=st.integers(0, 30),
    torn_tail=st.booleans(),
)
def test_kill_and_recover_matches_sequential_oracle(actions, prefix, acked, torn_tail):
    statements = [s for step in catalog_steps(actions[:prefix]) for s in step]

    # Sequential oracle: the same prefix replayed on the materializing
    # oracle and a compiled service, one statement at a time.
    sequential = replay(catalog(TRIGGERS), [ORACLE, COMPILED], [[s] for s in statements])
    oracle = sequential.targets["compiled"]

    with tempfile.TemporaryDirectory() as raw_dir:
        directory = Path(raw_dir)
        server = _open(directory)
        sharded = server.sharded
        reference = catalog_sharded()  # borrow schema + data
        for table_name in reference.table_names():
            sharded.create_table(reference.schema(table_name))
        merged = reference.snapshot()
        sharded.load_rows("product", merged["product"])
        sharded.load_rows("vendor", merged["vendor"])
        server.ensure_view(catalog_view())
        for definition in TRIGGERS:
            server.ensure_trigger(definition)
        inbox = server.subscribe("inbox", capacity=1024)

        with server:
            for statement in statements:
                server.execute(statement)

        delivered = inbox.drain()
        acked_count = min(acked, len(delivered))
        for activation in delivered[:acked_count]:
            inbox.ack(activation)
        # ---- crash: no close(), no snapshot(); optionally tear the tails.
        if torn_tail:
            for victim in (directory / "shard0" / "wal.log", directory / "outbox.log"):
                with open(victim, "ab") as handle:
                    handle.write(b"\x13\x37garbage-torn-frame")

        recovered = _open(directory)
        try:
            # Tables: exactly the oracle's state for the executed prefix.
            assert tables(recovered.sharded.snapshot()) == tables(oracle.database.snapshot())
            # Registry: every trigger (and the view) rehydrated.
            assert sorted(t.name for t in recovered.server.triggers) == sorted(
                spec.name for spec in oracle.triggers
            )
            assert recovered.server.services[0].views == ["catalog"]

            # Delivery: the serving run produced the oracle's activations...
            oracle_multiset = Counter(record[:3] for record in fired(sequential))
            assert Counter(_signature(a) for a in delivered) == oracle_multiset

            # ...and everything accepted-but-unacked comes back (at-least-once).
            inbox2 = recovered.subscribe("inbox", capacity=1024)
            redelivered = inbox2.drain()
            assert Counter(_signature(a) for a in redelivered) == Counter(
                _signature(a) for a in delivered[acked_count:]
            )
            # Per-shard order is preserved on redelivery.
            for shard in range(2):
                sequences = [a.sequence for a in redelivered if a.shard == shard]
                assert sequences == sorted(sequences)
            # No lost activation overall: acked ∪ redelivered == oracle.
            assert (
                Counter(_signature(a) for a in delivered[:acked_count])
                + Counter(_signature(a) for a in redelivered)
            ) == oracle_multiset
        finally:
            recovered.close()
