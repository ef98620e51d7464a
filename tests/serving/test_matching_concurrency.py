"""Trigger DDL racing DML on the sharded server: matching indexes stay safe.

Every shard service maintains per-group predicate indexes incrementally
on ``create_trigger`` / ``register_triggers_bulk`` / ``drop_trigger`` /
``drop_view``.  DDL is a single external mutator, but it races the shard
workers' *reads* (index probes) of the same structures, so the maintenance
code publishes every change atomically (tuple swaps, list replacement,
rebuild-then-swap).

These tests drive an 8-shard :class:`ActiveViewServer` with concurrent
client DML while a DDL thread registers and drops triggers the whole time:

* **stable** triggers — registered before the run and never touched — must
  produce exactly the sequential oracle's activation multiset: an activation
  is never dropped (a probe observing a half-built index) and never
  duplicated (a row indexed twice during a swap);
* **churn** triggers — registered / dropped mid-run — may fire or not fire
  depending on timing, but can never fire twice for one (trigger, key,
  statement) nor fire after their drop completed and a later statement ran.
"""

from __future__ import annotations

import threading

from repro.core.service import ActiveViewService, ExecutionMode
from repro.serving import ActiveViewServer
from repro.workloads import (
    HierarchyWorkload,
    WorkloadParameters,
    run_concurrent_clients,
)
from repro.xmlmodel import serialize

_PARAMETERS = WorkloadParameters(
    depth=2, leaf_tuples=512, fanout=16,
    num_triggers=24, satisfied_triggers=6, seed=37,
)
_SHARDS = 8


def _stable_definitions(workload: HierarchyWorkload) -> list[str]:
    return workload.trigger_definitions()


def _churn_definitions(workload: HierarchyWorkload, count: int) -> list[str]:
    """Triggers equivalent in shape to the stable ones, with fresh names."""
    view = workload.parameters.view_name
    top = workload.level_element(0)
    return [
        f"CREATE TRIGGER churn_{index} AFTER UPDATE ON view('{view}')/{top} "
        f"WHERE OLD_NODE/@name = '{workload.target_top_name}' "
        f"DO collect(NEW_NODE)"
        for index in range(count)
    ]


def _build_server(workload: HierarchyWorkload) -> ActiveViewServer:
    server = ActiveViewServer(workload.build_sharded_database(_SHARDS))
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    assert all(service.use_matching_indexes for service in server.services)
    return server


def test_ddl_racing_dml_preserves_stable_activations():
    workload = HierarchyWorkload(_PARAMETERS)
    server = _build_server(workload)
    stable = _stable_definitions(workload)
    server.register_triggers_bulk(stable)
    stable_names = {definition.split()[2] for definition in stable}

    churn = _churn_definitions(workload, 40)
    streams = workload.client_streams(6, 12)
    subscriber = server.subscribe("matching-concurrency", capacity=16384)

    stop = threading.Event()
    ddl_errors: list[BaseException] = []

    def ddl_loop() -> None:
        """Register and drop churn triggers until the DML run finishes."""
        try:
            cursor = 0
            while not stop.is_set():
                batch = churn[cursor % len(churn):][:4] or churn[:4]
                # Alternate single registration and bulk registration.
                if cursor % 2:
                    server.register_triggers_bulk(batch)
                else:
                    for definition in batch:
                        server.create_trigger(definition)
                for definition in batch:
                    server.drop_trigger(definition.split()[2])
                cursor += len(batch)
        except BaseException as error:  # surfaced in the main thread
            ddl_errors.append(error)

    ddl_thread = threading.Thread(target=ddl_loop, name="ddl-churn")
    with server:
        ddl_thread.start()
        try:
            result = run_concurrent_clients(server, streams)
        finally:
            stop.set()
            ddl_thread.join(timeout=30)
    assert not ddl_thread.is_alive()
    assert not ddl_errors, ddl_errors
    assert not result.errors
    assert result.statements == sum(len(stream) for stream in streams)
    # All churn triggers were dropped again.
    assert {spec.name for spec in server.triggers} == stable_names

    # Sequential oracle over the same statements, stable triggers only.
    database = workload.build_database()
    oracle = ActiveViewService(database, ExecutionMode.GROUPED_AGG)
    oracle.register_view(workload.build_view())
    oracle.register_action("collect", lambda node: None)
    oracle.register_triggers_bulk(stable)
    for statement in (s for stream in streams for s in stream):
        oracle.execute(statement)

    activations = subscriber.drain()
    served_stable = {
        (a.trigger, a.event.value, a.key)
        for a in activations
        if a.trigger in stable_names
    }
    expected = {(f.trigger, f.event.value, f.key) for f in oracle.fired}
    # Exactly-once for every stable trigger: nothing dropped by a probe that
    # raced index maintenance, nothing invented.
    assert served_stable == expected
    assert expected, "the property is vacuous if nothing fired"

    # Churn triggers: firing depends on DDL/DML timing, but one statement can
    # never activate one trigger twice for one node transition.  Per shard,
    # activations are emitted in execution order, a statement emits each
    # (trigger, key) at most once, and any two *different* statements that
    # fire produce different node transitions — so two consecutive
    # activations with identical (trigger, key, payload) on one shard can
    # only mean a double activation (e.g. a constants row indexed twice).
    def payload(activation):
        return (
            activation.trigger,
            activation.key,
            serialize(activation.old_node) if activation.old_node is not None else None,
            serialize(activation.new_node) if activation.new_node is not None else None,
        )

    by_shard: dict[int, list] = {}
    for activation in sorted(activations, key=lambda a: (a.shard, a.sequence)):
        by_shard.setdefault(activation.shard, []).append(activation)
    for shard_activations in by_shard.values():
        for previous, current in zip(shard_activations, shard_activations[1:]):
            assert payload(previous) != payload(current), (
                f"double activation on shard {current.shard}: {payload(current)}"
            )

    # No indexed group ever fell back to the linear scan, even mid-DDL.
    assert server.evaluation_report()["matching_fallbacks"] == 0


def test_drop_view_racing_dml_never_corrupts_service_state():
    """drop_view tears down trie + matchers while DML drains; state stays whole."""
    workload = HierarchyWorkload(_PARAMETERS)
    server = _build_server(workload)
    view_name = workload.parameters.view_name
    stable = _stable_definitions(workload)
    server.register_triggers_bulk(stable)

    streams = workload.client_streams(4, 6)
    dropped = threading.Event()

    def drop_later() -> None:
        # Let some DML through first, then tear the whole view down.
        threading.Event().wait(0.05)
        server.drop_view(view_name)
        dropped.set()

    dropper = threading.Thread(target=drop_later, name="drop-view")
    with server:
        dropper.start()
        result = run_concurrent_clients(server, streams)
        dropper.join(timeout=30)
    assert dropped.is_set()
    assert not result.errors
    # Teardown is complete and symmetric on every shard.
    assert server.triggers == []
    for service in server.services:
        assert service.triggers == []
        assert service.group_count() == 0
        assert service.monitored_groups(view_name) == []
    # The server still serves DML after the teardown (no triggers fire).
    with server:
        follow_up = run_concurrent_clients(server, workload.client_streams(2, 2))
    assert not follow_up.errors
