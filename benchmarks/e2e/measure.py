"""Clocks, percentiles, the statement ledger and the span recorder.

Everything here runs in the benchmark's own process and observes the
program only through what its public hooks hand over.  Timestamps are
``time.perf_counter()`` seconds: CLOCK_MONOTONIC on Linux, so a child
process's hook timestamps and the generator's are on one axis.
"""

from __future__ import annotations

import collections
import gc
import statistics
import threading
import time
from typing import Sequence

__all__ = [
    "now", "settle_heap", "median", "percentile", "tail_percentile", "rate", "ratio",
    "evaluation_metrics", "Ledger", "Spans", "Outcome",
]

now = time.perf_counter


def settle_heap() -> None:
    """Collect, freeze the surviving heap, and switch the cyclic collector off.

    Called by every hosting process between phases: after set-up and
    warm-up, and again between the timed phases, so garbage is collected
    *between* measurements and never during one.

    Left alone, CPython's full collections rescan everything the program
    retains — the trigger indexes and tables set-up built, plus every
    ``FiredTrigger`` and pending outbox activation (with their XML nodes)
    a serving process keeps for the life of the run — for 80–250 ms each,
    a handful of times per run, at moments that depend on allocation
    counts.  Whether one lands inside the statements that decide a p95
    made that metric's run-to-run spread 45–75 % and throughput's 15 %:
    no layer change smaller than that could be seen.  Running the
    collector only at quiescent points is also a standard deployment
    choice for latency-sensitive Python services; reference counting
    still frees everything acyclic at once, and ``peak_rss_mb`` reports
    what the policy costs in memory.
    """
    gc.enable()
    gc.collect()
    gc.freeze()
    gc.disable()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def tail_percentile(count: int) -> float:
    """The highest of p95/p90/p75 that leaves at least ten samples beyond it."""
    for fraction in (0.95, 0.90, 0.75):
        if count * (1.0 - fraction) >= 10:
            return fraction
    return 0.5


class Ledger:
    """Per-statement timestamps plus per-key FIFO correlation of activations.

    A statement is *sent* (with its key and the activations it must cause),
    *acked* when the writer holds its result, and *notified* when the
    consumer holds the last activation it caused.  Activations carry no
    statement id, so they are matched to the oldest unfinished statement of
    their key: per-node order is guaranteed by the program, and the
    generators keep outstanding statements on distinct keys.

    ``send`` runs on the producer, ``acked`` on whichever thread resolves
    the reply, ``activation`` on the consumer; ``on_complete`` is called
    once per statement when it is both acked and notified.
    """

    def __init__(self, on_complete=None) -> None:
        self.due: list[float] = []
        self.sent_at: list[float] = []
        self.ack_at: list[float] = []
        self.notify_at: list[float] = []
        self.expected: list[int] = []
        self.key: list[tuple] = []
        self._pending: dict[tuple, collections.deque] = collections.defaultdict(
            collections.deque
        )
        self._open: list[int] = []  # 2 = needs ack and notify, 0 = complete
        self._lock = threading.Lock()
        self._on_complete = on_complete
        self._sequence: dict[int, int] = {}
        self.received = 0
        #: Activations with no statement waiting, or out of per-shard order.
        self.violations = 0
        self.errors = 0

    def send(self, key: tuple, expected: int, due: float, sent: float) -> int:
        index = len(self.due)
        self.due.append(due)
        self.sent_at.append(sent)
        self.ack_at.append(0.0)
        self.notify_at.append(0.0)
        self.expected.append(expected)
        self.key.append(key)
        self._open.append(2 if expected else 1)
        if expected:
            self._pending[key].append([index, expected])
        return index

    def _finish_part(self, index: int) -> None:
        with self._lock:
            self._open[index] -= 1
            complete = self._open[index] == 0
        if complete and self._on_complete is not None:
            self._on_complete(index)

    def acked(self, index: int, at: float, ok: bool = True) -> None:
        self.ack_at[index] = at
        if not ok:
            self.errors += 1
        self._finish_part(index)

    def activation(self, key: tuple, shard: int, sequence: int, at: float) -> int | None:
        """Record one received activation; returns the statement that caused it."""
        self.received += 1
        last = self._sequence.get(shard)
        if last is not None and sequence != last + 1:
            self.violations += 1
        self._sequence[shard] = sequence
        queue = self._pending.get(key)
        if not queue:
            self.violations += 1
            return None
        entry = queue[0]
        index = entry[0]
        entry[1] -= 1
        if not entry[1]:
            queue.popleft()
            self.notify_at[index] = at
            self._finish_part(index)
        return index

    def unfinished(self) -> int:
        """Statements sent and not (yet) both acked and notified."""
        return sum(1 for state in self._open if state)

    def missing(self) -> int:
        """Activations expected by unfinished statements and never received."""
        return sum(entry[1] for queue in self._pending.values() for entry in queue)

    def samples(self, first: int, last: int) -> tuple[list[float], list[float]]:
        """``(ack, notify)`` latencies in ms from the due time, ops ``first..last``."""
        ack, notify = [], []
        for index in range(first, last):
            if self._open[index]:
                continue
            ack.append((self.ack_at[index] - self.due[index]) * 1e3)
            if self.expected[index]:
                notify.append((self.notify_at[index] - self.due[index]) * 1e3)
        return ack, notify


class Spans:
    """In-memory span store: ``(op_id, parent, name, start, end)`` tuples.

    One root span per statement (``parent`` is ``None``), children named by
    the layer whose public hooks bound them.  Written out as JSON when the
    run ends; a layer's self time is its span minus the children inside it.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[int, str | None, str, float, float]] = []

    def root(self, op_id: int, start: float, end: float) -> None:
        self.rows.append((op_id, None, "statement", start, end))

    def child(self, op_id: int, name: str, start: float, end: float) -> None:
        self.rows.append((op_id, "statement", name, start, end))

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) * 1e6 for _, _, n, start, end in self.rows if n == name]

    def coverage(self) -> float:
        """Median share of a root span's duration its named children cover."""
        roots: dict[int, float] = {}
        covered: dict[int, float] = collections.defaultdict(float)
        for op_id, parent, _, start, end in self.rows:
            if parent is None:
                roots[op_id] = end - start
            else:
                covered[op_id] += end - start
        shares = [covered[op] / span for op, span in roots.items() if span > 0]
        return median(shares)

    def as_json(self) -> list[dict]:
        return [
            {"op_id": op_id, "parent": parent, "name": name,
             "start_us": round(start * 1e6, 1), "end_us": round(end * 1e6, 1)}
            for op_id, parent, name, start, end in self.rows
        ]


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def evaluation_metrics(before: dict, after: dict) -> dict[str, float]:
    """``xqgm`` / ``matching`` counters from two ``evaluation_report()`` readings.

    Ratios are over what happened between the readings; the fallback counts
    are totals (each must be 0 for the life of the process).
    """
    grown = {key: value - before.get(key, 0) for key, value in after.items()}
    lookups = grown["result_cache_hits"] + grown["result_cache_misses"]
    probes = grown["matching_probes"]
    return {
        "xqgm.result_cache_hit_ratio": ratio(grown["result_cache_hits"], lookups),
        "xqgm.compiled_plan_fallbacks": after["compiled_plan_fallbacks"],
        "xqgm.columnar_fallbacks": after["columnar_fallbacks"],
        "matching.candidate_rows_per_probe": ratio(grown["matching_candidate_rows"], probes),
        "matching.wide_probe_ratio": ratio(grown["matching_wide_probes"], probes),
        "matching.fallbacks": after["matching_fallbacks"],
    }


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        #: Reasons the run is invalid or incorrect (empty when all is well).
        self.problems: list[str] = []
        #: Activations the generator predicted (denominator of the failure ratio).
        self.activations_expected = 0
        #: Sample counts and other context printed beside the metrics.
        self.notes: list[str] = []
        self.spans: Spans | None = None

    def fail(self, count: int, reason: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{reason}: {count}")
