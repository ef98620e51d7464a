"""The tentpole correctness property: concurrent server == sequential oracle.

For conflict-free client streams on a view-closed sharding, the **set** of
activations the concurrent sharded server delivers must equal the set a
single sequential :class:`ActiveViewService` produces for the same
statements, and both must leave the database in the same state.

Set (not sequence) equality is the right statement: micro-batching may
coalesce two transitions of one node that a sequential run observes
separately (net-effect semantics, exactly as documented for the batch
engine), but it may never invent, lose, or misattribute an activation.  A
second test pins payload equality too, on streams with at most one statement
per monitored node, where coalescing cannot kick in.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.service import ActiveViewService, ExecutionMode
from repro.serving import ActiveViewServer
from repro.workloads import (
    HierarchyWorkload,
    WorkloadParameters,
    run_concurrent_clients,
)
from repro.xmlmodel import serialize


def build_server(parameters: WorkloadParameters, shard_count: int, mode) -> tuple:
    workload = HierarchyWorkload(parameters)
    server = ActiveViewServer(workload.build_sharded_database(shard_count), mode=mode)
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    for definition in workload.trigger_definitions():
        server.create_trigger(definition)
    return server, workload


def sequential_oracle(parameters: WorkloadParameters, statements, mode):
    """One service, one thread, one statement at a time — the ground truth."""
    workload = HierarchyWorkload(parameters)
    database = workload.build_database()
    service = ActiveViewService(database, mode=mode)
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    for definition in workload.trigger_definitions():
        service.create_trigger(definition)
    for statement in statements:
        service.execute(statement)
    return service, database


PARAMS = [
    pytest.param(
        WorkloadParameters(depth=2, leaf_tuples=256, fanout=16, num_triggers=24,
                           satisfied_triggers=4, seed=7),
        4, ExecutionMode.GROUPED_AGG, id="depth2-grouped_agg-4shards",
    ),
    pytest.param(
        WorkloadParameters(depth=3, leaf_tuples=256, fanout=16, num_triggers=24,
                           satisfied_triggers=4, seed=11),
        3, ExecutionMode.GROUPED, id="depth3-grouped-3shards",
    ),
]


@pytest.mark.parametrize("parameters, shards, mode", PARAMS)
def test_activation_set_equals_sequential_oracle(parameters, shards, mode):
    server, workload = build_server(parameters, shards, mode)
    streams = workload.client_streams(6, 10)
    subscriber = server.subscribe("equiv", capacity=4096)
    with server:
        result = run_concurrent_clients(server, streams)
    assert not result.errors
    assert result.statements == sum(len(stream) for stream in streams)

    flat = [statement for stream in streams for statement in stream]
    oracle_service, oracle_db = sequential_oracle(parameters, flat, mode)

    served = {(a.trigger, a.event.value, a.key) for a in subscriber.drain()}
    expected = {(f.trigger, f.event.value, f.key) for f in oracle_service.fired}
    assert served == expected
    assert expected, "the property is vacuous if nothing fired"

    # Both executions converge to the same database contents.
    oracle_snapshot = {
        name: sorted(rows, key=repr) for name, rows in oracle_db.snapshot().items()
    }
    assert server.sharded.snapshot() == oracle_snapshot


def test_activation_payloads_match_on_single_transition_streams():
    """<= 1 statement per node: every OLD/NEW payload must match the oracle's."""
    parameters = WorkloadParameters(depth=2, leaf_tuples=512, fanout=16,
                                    num_triggers=32, satisfied_triggers=4, seed=13)
    server, workload = build_server(parameters, 4, ExecutionMode.GROUPED_AGG)
    # 32 tops dealt to 4 clients = 8 tops each; 8 updates per client means
    # exactly one statement per top subtree, i.e. one transition per node.
    streams = workload.client_streams(4, 8)
    subscriber = server.subscribe("payload", capacity=4096)
    with server:
        result = run_concurrent_clients(server, streams)
    assert not result.errors

    flat = [statement for stream in streams for statement in stream]
    oracle_service, _ = sequential_oracle(parameters, flat, ExecutionMode.GROUPED_AGG)

    def payload(trigger, event, key, old_node, new_node):
        return (
            trigger, event.value, key,
            serialize(old_node) if old_node is not None else None,
            serialize(new_node) if new_node is not None else None,
        )

    served = sorted(
        payload(a.trigger, a.event, a.key, a.old_node, a.new_node)
        for a in subscriber.drain()
    )
    expected = sorted(
        payload(f.trigger, f.event, f.key, f.old_node, f.new_node)
        for f in oracle_service.fired
    )
    assert served == expected
    assert expected


def test_equivalence_is_independent_of_shard_count():
    parameters = WorkloadParameters(depth=2, leaf_tuples=256, fanout=16,
                                    num_triggers=24, satisfied_triggers=4, seed=29)
    observed = []
    for shards in (1, 2, 5):
        server, workload = build_server(parameters, shards, ExecutionMode.GROUPED_AGG)
        streams = workload.client_streams(4, 6)
        subscriber = server.subscribe(capacity=4096)
        with server:
            result = run_concurrent_clients(server, streams)
        assert not result.errors
        observed.append({(a.trigger, a.event.value, a.key) for a in subscriber.drain()})
    assert observed[0] == observed[1] == observed[2]
    assert observed[0]


def test_shard_workers_run_actions_at_the_same_time():
    """Two shards' actions overlap: each waits until another worker is inside one.

    A serialised executor never has two workers inside an action: the first
    action sits out the whole timeout, the rest stop waiting, and the overlap
    is never seen.
    """
    parameters = WorkloadParameters(depth=2, leaf_tuples=512, fanout=16,
                                    num_triggers=64, satisfied_triggers=4, seed=7)
    workload = HierarchyWorkload(parameters)
    server = ActiveViewServer(workload.build_sharded_database(4),
                              mode=ExecutionMode.GROUPED_AGG)
    server.register_view(workload.build_view())
    lock = threading.Lock()
    inside: set[int] = set()
    seen: set[int] = set()
    overlap = threading.Event()
    gave_up = threading.Event()

    def act(node):
        thread = threading.get_ident()
        with lock:
            seen.add(thread)
            inside.add(thread)
            if len(inside) >= 2:
                overlap.set()
        if not gave_up.is_set() and not overlap.wait(timeout=10):
            gave_up.set()
        with lock:
            inside.discard(thread)

    server.register_action("collect", act)
    for definition in workload.trigger_definitions():
        server.create_trigger(definition)
    with server:
        result = run_concurrent_clients(server, workload.client_streams(8, 8))
    assert not result.errors
    assert overlap.is_set()
    assert len(seen) >= 2
