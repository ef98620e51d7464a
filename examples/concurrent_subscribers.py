"""Concurrent serving: many clients, sharded execution, subscriber fan-out.

Builds a small hierarchy workload partitioned across 4 shards, registers the
trigger population through an ``ActiveViewServer``, and then:

1. drives the server with 6 concurrent closed-loop clients streaming
   conflict-free leaf-price updates (each client owns its own top-element
   subtrees);
2. consumes the resulting activations live from a bounded ``Subscriber`` on
   a separate consumer thread (backpressure-safe, per-node ordered);
3. prints what happened — shard batch statistics, delivery counts, and a
   sample of the delivered activations.

Run with:  PYTHONPATH=src python examples/concurrent_subscribers.py
"""

from __future__ import annotations

import threading

from repro.core.service import ExecutionMode
from repro.serving import ActiveViewServer
from repro.workloads import HierarchyWorkload, WorkloadParameters, run_concurrent_clients

SHARDS = 4
CLIENTS = 6
UPDATES_PER_CLIENT = 12


def main() -> None:
    parameters = WorkloadParameters(
        depth=2, leaf_tuples=1_024, fanout=16, num_triggers=64,
        satisfied_triggers=8, seed=42,
    )
    workload = HierarchyWorkload(parameters)

    # One catalog, four shards; every top element's subtree lives on exactly
    # one shard (view-closed placement), so per-shard trigger processing is
    # exact.
    server = ActiveViewServer(
        workload.build_sharded_database(SHARDS),
        mode=ExecutionMode.GROUPED_AGG,
        max_batch=16,
    )
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    for definition in workload.trigger_definitions():
        server.create_trigger(definition)
    report = server.evaluation_report()
    print(f"installed {len(server.triggers)} triggers on {SHARDS} shards "
          f"(plan cache: {report['plan_cache_misses']} compiles, "
          f"{report['plan_cache_hits']} reuses)")

    # A bounded subscriber consumed live from its own thread.
    inbox = server.subscribe("inbox", capacity=32)
    received = []

    def consume() -> None:
        for activation in inbox:  # ends once the subscriber is closed + empty
            received.append(activation)

    consumer = threading.Thread(target=consume, name="consumer", daemon=True)
    consumer.start()

    streams = workload.client_streams(CLIENTS, UPDATES_PER_CLIENT)
    with server:
        result = run_concurrent_clients(server, streams)
    inbox.close()
    consumer.join(timeout=10)

    print(f"{result.statements} statements from {CLIENTS} clients in "
          f"{result.seconds * 1000:.0f} ms "
          f"({result.throughput:.0f} stmt/s aggregate)")
    for index, stats in enumerate(server.stats):
        print(f"  shard {index}: {stats.statements} statements in "
              f"{stats.batches} micro-batches (largest {stats.max_batch})")
    print(f"delivered {inbox.delivered} activations "
          f"({result.activations} published, {inbox.abandoned} abandoned)")

    for activation in received[:5]:
        print(f"  [{activation.shard}:{activation.sequence}] {activation.trigger} "
              f"{activation.event.value} key={activation.key}")

    assert inbox.delivered == result.activations and inbox.abandoned == 0
    assert len(received) == result.activations


if __name__ == "__main__":
    main()
