"""PlanCache thread-safety under contention, and cross-service sharing."""

from __future__ import annotations

import threading
import time

from repro.core.service import ActiveViewService, ExecutionMode, PlanCache
from repro.relational import UpdateStatement
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database


def test_racing_callers_compile_exactly_once():
    cache = PlanCache()
    compiles = []
    barrier = threading.Barrier(8)
    results = []
    hits = []

    def compile_fn():
        compiles.append(threading.get_ident())
        time.sleep(0.02)  # widen the race window
        return {"t": object()}

    def worker():
        barrier.wait()
        translations, was_hit = cache.get_or_compile(("view", ("p",), "UPDATE", ()), compile_fn)
        results.append(translations)
        hits.append(was_hit)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(compiles) == 1
    assert hits.count(False) == 1 and hits.count(True) == 7
    assert all(result is results[0] for result in results)
    assert len(cache) == 1


def test_distinct_keys_compile_independently():
    cache = PlanCache()
    hits = [
        cache.get_or_compile(("view", ("p",), "UPDATE", (index,)), lambda: {"k": index})[1]
        for index in range(5)
    ]
    assert hits.count(False) == 5 and hits.count(True) == 0 and len(cache) == 5


def test_concurrent_trigger_creation_across_services_sharing_a_cache():
    """N shard-like services compiling the same population race on one cache.

    Triggers differ only in their condition constants, so across all
    services and all triggers exactly **two** plans exist (one per XML
    event used); every other create_trigger must hit.
    """
    services = []
    cache = PlanCache()
    for _ in range(4):
        service = ActiveViewService(
            build_paper_database(), mode=ExecutionMode.GROUPED_AGG, plan_cache=cache
        )
        service.register_view(catalog_view())
        service.register_action("notify", lambda node: None)
        services.append(service)

    triggers_per_service = 6
    barrier = threading.Barrier(len(services))
    errors: list[BaseException] = []

    def install(service: ActiveViewService, offset: int) -> None:
        barrier.wait()
        try:
            for index in range(triggers_per_service):
                event = "UPDATE" if index % 2 == 0 else "DELETE"
                constant = "CRT 15" if index == 0 else f"name{index}"
                service.create_trigger(
                    f"CREATE TRIGGER t{offset}_{index} AFTER {event} "
                    f"ON view('catalog')/product "
                    f"WHERE OLD_NODE/@name = '{constant}' DO notify(OLD_NODE)"
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=install, args=(service, offset))
        for offset, service in enumerate(services)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(cache) == 2  # one UPDATE plan + one DELETE plan, ever
    # Each lookup is counted by the one service that made it.
    assert sum(service.plan_cache_misses for service in services) == 2
    # Within one service, same-structure triggers join an existing group
    # without recompiling, so the cache sees one lookup per (service, event).
    assert sum(service.plan_cache_hits for service in services) == len(services) * 2 - 2
    # Every service still works after the concurrent compilation storm.
    for service in services:
        service.execute(UpdateStatement("vendor", {"price": 99.0}, keys=[("Amazon", "P1")]))
        assert service.fired, "service failed to fire after concurrent compilation"


def test_private_cache_is_the_default():
    first = ActiveViewService(build_paper_database())
    second = ActiveViewService(build_paper_database())
    assert first._plan_cache is not second._plan_cache
