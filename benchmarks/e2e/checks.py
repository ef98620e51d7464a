"""Correctness checks every workload runs on its own outputs.

* **Oracle twin** — the warm-up prefix of a run is replayed through an
  ``ActiveViewService(use_compiled_plans=False, use_matching_indexes=False)``
  (interpreted plans, linear constants scan) and the
  ``(trigger, key, serialized node)`` sets are compared statement by
  statement.
* **Final tables** — every statement of the run is replayed on a
  trigger-free twin database and the table contents are compared.

The per-statement activation count (against the generator's prediction)
and per-shard sequence contiguity are checked inline by the runners and
the :class:`~benchmarks.e2e.measure.Ledger`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.core.service import ActiveViewService
from repro.relational.database import Database
from repro.workloads import HierarchyWorkload
from repro.xmlmodel import serialize

from benchmarks.e2e.gen import Op, Spec
from benchmarks.e2e.measure import median, now

#: Statements per ``execute_many`` call when replaying on the twin (the
#: serving layer's default ``max_batch``).
TWIN_BATCH = 32


def triples(fired: Iterable) -> list[tuple]:
    """Sorted ``(trigger, key, serialized NEW_NODE or OLD_NODE)`` of firings.

    Works on ``FiredTrigger`` and ``Activation`` alike; all firings of one
    statement usually share one node object, so serialization is memoized.
    """
    texts: dict[int, str] = {}
    rows = []
    for item in fired:
        node = item.new_node if item.new_node is not None else item.old_node
        text = texts.get(id(node))
        if text is None:
            text = texts[id(node)] = serialize(node)
        rows.append((item.trigger, tuple(item.key), text))
    return sorted(rows)


def oracle_mismatches(
    spec: Spec, seed: int, triggers: Sequence[str], prefix: Sequence[Op],
    observed: Sequence[list[tuple]],
) -> int:
    """Statements of ``prefix`` whose firings differ from the oracle twin's."""
    workload = HierarchyWorkload(spec.parameters(seed))
    oracle = ActiveViewService(
        workload.build_database(), use_compiled_plans=False, use_matching_indexes=False
    )
    oracle.register_view(workload.build_view())
    oracle.register_action("collect", lambda node: None)
    oracle.register_triggers_bulk(triggers)
    mismatches = 0
    for op, seen in zip(prefix, observed):
        if op.ddl is not None:
            oracle.drop_trigger(op.ddl[0])
            oracle.create_trigger(op.ddl[1])
            continue
        mark = len(oracle.fired)
        oracle.execute(op.statement)
        if triples(oracle.fired[mark:]) != seen:
            mismatches += 1
    return mismatches


def table_digest(snapshot: dict[str, list[tuple]]) -> str:
    """Order-independent digest of ``Database.snapshot()`` contents."""
    digest = hashlib.sha256()
    for table in sorted(snapshot):
        digest.update(table.encode())
        for row in sorted(snapshot[table]):
            digest.update(repr(row).encode())
    return digest.hexdigest()


def twin_replay(spec: Spec, seed: int, statements: Sequence) -> tuple[Database, float]:
    """Replay ``statements`` on a trigger-free twin.

    Returns the twin and ``relational.batch_apply_us_per_stmt``: the median
    per-statement cost of ``execute_many`` over batches of ``TWIN_BATCH``.
    """
    twin = HierarchyWorkload(spec.parameters(seed)).build_database()
    per_statement = []
    for start in range(0, len(statements), TWIN_BATCH):
        chunk = statements[start:start + TWIN_BATCH]
        started = now()
        twin.execute_many(chunk)
        per_statement.append((now() - started) / len(chunk))
    return twin, median(per_statement) * 1e6
