"""Workload specifications and the seed-driven input generators.

Everything the program under test sees — data parameters, trigger
definitions, DML statements, trigger DDL — is derived here from
``(spec, seed)`` and nothing else, so the same seed reproduces the same
inputs and a different seed gives different ones
(:func:`stream_digest` is what the smoke test compares).

Each generated operation carries the number of activations it must cause
(``Op.expected``), predicted from a small model of the trigger population
kept beside the generator.  The runners compare that prediction against
what the program delivers, for every statement of a run.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

from repro.relational.dml import (
    DeleteStatement,
    InsertStatement,
    Statement,
    UpdateStatement,
)
from repro.workloads import HierarchyWorkload, WorkloadParameters

__all__ = [
    "Op",
    "Spec",
    "SPECS",
    "ChurnStream",
    "hot_stream",
    "spread_stream",
    "open_stream",
    "stream_digest",
]

_TOP = "view('hierarchy')/topelem"

#: Untimed statements executed before timing starts (caches warm, lazy
#: matcher indexes built).  They are also the prefix the oracle replays.
WARMUP_STATEMENTS = 200


@dataclass(frozen=True)
class Spec:
    """Sizes and load shape of one workload.

    Why each workload exists is in ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    #: ``library`` (ActiveViewService.execute), ``durable`` (in-process
    #: DurableServer), ``wire`` (child behind NetworkServer) or ``web``
    #: (child behind WebGateway).
    kind: str
    depth: int
    fanout: int
    tops: int
    triggers: int
    #: Outstanding statements of the closed ``saturate`` loop.
    window: int = 1
    #: Statements per second of the open ``paced`` loop (≈50 % of the
    #: saturate rate measured on the reference box when this was written).
    paced_rate: float = 0.0
    #: Traced runs execute a fixed ``trace_rate * seconds`` statements so
    #: that program counters repeat exactly for one seed.
    trace_rate: float = 100.0
    warmup: int = WARMUP_STATEMENTS
    #: Leading warm-up operations replayed through the oracle twin (the
    #: interpreted, index-free oracle is ~4x slower than the program).
    oracle: int = WARMUP_STATEMENTS
    #: Set by :meth:`smoke`; the server child rebuilds its spec from it.
    reduced: bool = False

    def parameters(self, seed: int) -> WorkloadParameters:
        return WorkloadParameters(
            depth=self.depth,
            leaf_tuples=self.tops * self.fanout,
            fanout=self.fanout,
            num_triggers=1,
            satisfied_triggers=1,
            seed=seed,
        )

    def smoke(self) -> "Spec":
        """The ~1 % size the tier-1 smoke test runs."""
        tops = max(8, self.tops // 16)
        if self.kind == "library":
            triggers = max(40, self.triggers // 100)
        else:
            triggers = SPREAD_PER_TOP * tops
        return replace(
            self, tops=tops, triggers=triggers, window=min(self.window, tops // 2),
            warmup=20, oracle=10, reduced=True,
        )


#: Activations each statement of the serving workloads causes: the trigger
#: population is ``SPREAD_PER_TOP`` equality triggers on every top element.
SPREAD_PER_TOP = 8

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "fire_hot", "library",
            depth=2, fanout=32, tops=256, triggers=20_000, trace_rate=300.0,
        ),
        Spec(
            "fire_mixed_churn", "library",
            depth=3, fanout=128, tops=64, triggers=2_000, trace_rate=20.0,
            warmup=100, oracle=50,
        ),
        Spec(
            "serve_durable", "durable",
            depth=2, fanout=32, tops=256, triggers=SPREAD_PER_TOP * 256,
            window=64, paced_rate=200.0, trace_rate=40.0,
        ),
        Spec(
            "wire_stream", "wire",
            depth=2, fanout=32, tops=256, triggers=SPREAD_PER_TOP * 256,
            window=64, paced_rate=170.0, trace_rate=100.0,
        ),
        Spec(
            "web_stream", "web",
            depth=2, fanout=32, tops=256, triggers=SPREAD_PER_TOP * 256,
            window=1, paced_rate=110.0, trace_rate=60.0,
        ),
    )
}


class Op(NamedTuple):
    """One generated operation and the activations it must cause."""

    #: The DML statement, or ``None`` for a trigger-DDL operation.
    statement: Statement | None
    #: Key of the monitored node the statement touches (``(top id,)``).
    key: tuple | None
    expected: int
    #: ``(trigger to drop, definition to create)`` for a DDL operation.
    ddl: tuple[str, str] | None = None


class _Prices:
    """Fresh leaf prices: never equal to the leaf's current price.

    An UPDATE to the current value is pruned as a no-op by the engine and
    fires nothing, which would read as a missing activation.  Generated
    prices sit above the data generator's 10–500 range and differ from the
    last one issued for the same leaf.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._last: dict[int, float] = {}

    def next(self, leaf: int) -> float:
        price = round(1000.0 + self._rng.random() * 8000.0, 2)
        if self._last.get(leaf) == price:
            price += 0.01
        self._last[leaf] = price
        return price


def _equality_trigger(name: str, event: str, node: str, constant: str, extra: str = "") -> str:
    action = "OLD_NODE" if event == "DELETE" else "NEW_NODE"
    return (
        f"CREATE TRIGGER {name} AFTER {event} ON {_TOP} "
        f"WHERE {node}/@name = '{constant}'{extra} DO collect({action})"
    )


# ------------------------------------------------------------------ fire_hot


def hot_stream(spec: Spec, seed: int, satisfied: int = 20) -> tuple[list[str], Iterator[Op]]:
    """Figure-17 population: ``satisfied`` triggers on one hot top element."""
    rng = random.Random(seed)
    workload = HierarchyWorkload(spec.parameters(seed))
    hot = 1 + rng.randrange(spec.tops)
    others = [top for top in range(1, spec.tops + 1) if top != hot]
    constants = [hot] * min(satisfied, spec.triggers)
    constants += [others[i % len(others)] for i in range(spec.triggers - len(constants))]
    rng.shuffle(constants)
    triggers = [
        _equality_trigger(f"t{i}", "UPDATE", "OLD_NODE", workload.top_name(top))
        for i, top in enumerate(constants)
    ]
    leaves = workload.leaf_ids_by_top()[hot]
    expected = constants.count(hot)

    def ops() -> Iterator[Op]:
        prices = _Prices(rng)
        while True:
            leaf = leaves[rng.randrange(len(leaves))]
            statement = UpdateStatement("leaf", {"price": prices.next(leaf)}, keys=[(leaf,)])
            yield Op(statement, (hot,), expected)

    return triggers, ops()


# ------------------------------------------------------------------ serving workloads


def spread_stream(spec: Spec, seed: int) -> tuple[list[str], Iterator[Op]]:
    """``SPREAD_PER_TOP`` triggers on every top; conflict-free round-robin updates.

    Consecutive statements walk a seed-shuffled cycle over *all* top
    elements, so any ``window < tops`` outstanding statements touch
    distinct monitored nodes: a micro-batch never nets two of them into one
    transition, and per-key FIFO correlation of activations is exact.
    """
    rng = random.Random(seed)
    workload = HierarchyWorkload(spec.parameters(seed))
    per_top = spec.triggers // spec.tops
    constants = [top for top in range(1, spec.tops + 1) for _ in range(per_top)]
    rng.shuffle(constants)
    triggers = [
        _equality_trigger(f"t{i}", "UPDATE", "OLD_NODE", workload.top_name(top))
        for i, top in enumerate(constants)
    ]
    by_top = workload.leaf_ids_by_top()
    cycle = list(by_top)
    rng.shuffle(cycle)

    def ops() -> Iterator[Op]:
        prices = _Prices(rng)
        for turn in itertools.count():
            for top in cycle:
                leaves = by_top[top]
                leaf = leaves[turn % len(leaves)]
                statement = UpdateStatement(
                    "leaf", {"price": prices.next(leaf)}, keys=[(leaf,)]
                )
                yield Op(statement, (top,), per_top)

    return triggers, ops()


# ------------------------------------------------------------------ fire_mixed_churn

#: Statement mix: 70 % UPDATE, 15 % INSERT, 15 % DELETE.  Four fifths of
#: the INSERTs/DELETEs add or remove one leaf of a populated top element
#: (at the view level an UPDATE of that element); one fifth give a spare,
#: childless top element its two leaves or take them away again, which is
#: what raises the view-level INSERT and DELETE events.
_MIX = (
    (0.70, "update_leaf"),
    (0.82, "insert_leaf"),
    (0.94, "delete_leaf"),
    (0.97, "insert_node"),
    (1.00, "delete_node"),
)
_SPARE_TOPS = 16
#: One ``drop_trigger`` + ``create_trigger`` pair per this many operations.
DDL_EVERY = 50


class ChurnStream:
    """Mixed DML + trigger DDL over Zipf-skewed keys, with its prediction model.

    Trigger shapes (each shape is one trigger group in the program):
    equality on ``@name``; equality plus a range conjunct on the node's leaf
    count (``>=`` or ``<``, indexable by the interval tree, truth changing
    as leaves come and go); equality plus a ``!=`` residual the matcher
    cannot index.  Every DDL operation drops a random trigger and creates
    one of the same shape under a new name.  Triggers sit on ``/topelem``
    only: a nested-path trigger group makes the program scan the whole leaf
    table per statement (≈0.6 s at this size), which leaves too few samples
    to measure.
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(seed)
        self._workload = HierarchyWorkload(spec.parameters(seed))
        self._prices = _Prices(self._rng)
        self._by_top = self._workload.leaf_ids_by_top()
        # Zipf(1) over a seed-shuffled ranking of all tops.
        ranking = list(self._by_top)
        self._rng.shuffle(ranking)
        self._ranking = ranking
        weights = [1.0 / rank for rank in range(1, len(ranking) + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._leaf_count = {top: len(leaves) for top, leaves in self._by_top.items()}
        self._next_leaf = spec.tops * spec.fanout + 1
        self._inserted: list[tuple[int, int]] = []  # (leaf id, top), FIFO
        #: Leaf ids currently under each spare top (empty = no view node).
        self._spare_leaves: list[list[int]] = [[] for _ in range(_SPARE_TOPS)]
        # name -> (event, constant, range op, range bound, residual conjunct)
        self._live: dict[str, tuple[str, str, str | None, int, bool]] = {}
        self._by_key: dict[tuple[str, str], dict[str, tuple[str | None, int]]] = {}
        self._names: list[str] = []
        self._counter = 0
        # The program evaluates trigger groups in creation order, and which
        # group fires last decides when a statement's last activation lands:
        # lead with one trigger of each shape, in the order _population()
        # lists them, so that order is the same for every seed.
        rest = self._population()
        leaders: dict[tuple, tuple] = {}
        for shape in rest:
            leaders.setdefault((shape[0], shape[2], shape[4]), shape)
        for shape in leaders.values():
            rest.remove(shape)
        self._rng.shuffle(rest)
        self.initial_triggers = [
            self._create(*shape) for shape in [*leaders.values(), *rest]
        ]

    # -- trigger population ---------------------------------------------------

    def _population(self) -> list[tuple[str, str, str | None, int, bool]]:
        """The same trigger shapes on every top element, whatever the seed.

        Work per statement must not depend on the seed (the seed picks keys,
        order and names), so every top carries an identical set: half plain
        equality, a fifth each ``>=`` and ``<`` range conjuncts over a fixed
        ladder of bounds around the initial leaf count, a tenth with the
        residual.  A tenth of the population each listens for the INSERT and
        DELETE of the spare elements.
        """
        spec = self.spec
        per_top = max(1, round(0.8 * spec.triggers / spec.tops))
        ranged = per_top // 5
        residual = per_top // 10
        shapes: list[tuple[str, str, str | None, int, bool]] = []
        for top in range(1, spec.tops + 1):
            constant = self._workload.top_name(top)
            for index in range(ranged):
                bound = spec.fanout - 2 + 2 * (index % 5)
                shapes.append(("UPDATE", constant, ">=", bound, False))
                shapes.append(("UPDATE", constant, "<", bound, False))
            shapes += [("UPDATE", constant, None, 0, True)] * residual
            shapes += [("UPDATE", constant, None, 0, False)] * (per_top - 2 * ranged - residual)
        per_spare = max(1, round(0.1 * spec.triggers / _SPARE_TOPS))
        for spare in range(_SPARE_TOPS):
            for event in ("INSERT", "DELETE"):
                shapes += [(event, f"spare_{spare}", None, 0, False)] * per_spare
        return shapes

    def _create(self, event: str, constant: str, op: str | None, bound: int,
                residual: bool) -> str:
        name = f"t{self._counter}"
        self._counter += 1
        extra = ""
        if op is not None:
            extra = f" and count(NEW_NODE/midelem1/leafelem) {op} {bound}"
        elif residual:
            extra = " and NEW_NODE/@name != 'none'"
        self._live[name] = (event, constant, op, bound, residual)
        self._by_key.setdefault((event, constant), {})[name] = (op, bound)
        self._names.append(name)
        node = "NEW_NODE" if event == "INSERT" else "OLD_NODE"
        return _equality_trigger(name, event, node, constant, extra)

    def _replace_trigger(self) -> tuple[str, str]:
        """Drop a random trigger; its replacement has the same shape, a new name."""
        position = self._rng.randrange(len(self._names))
        self._names[position], self._names[-1] = self._names[-1], self._names[position]
        name = self._names.pop()
        shape = self._live.pop(name)
        del self._by_key[(shape[0], shape[1])][name]
        return name, self._create(*shape)

    def _expected(self, event: str, constant: str, leaves: int = 0) -> int:
        matched = 0
        for op, bound in self._by_key.get((event, constant), {}).values():
            if op is None or (leaves >= bound if op == ">=" else leaves < bound):
                matched += 1
        return matched

    # -- statements -------------------------------------------------------------

    def _zipf_top(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return self._ranking[bisect.bisect_left(self._cumulative, point)]

    def _top_update(self, top: int) -> int:
        return self._expected("UPDATE", self._workload.top_name(top), self._leaf_count[top])

    def _statement(self) -> Op:
        rng = self._rng
        draw = rng.random()
        kind = next(name for limit, name in _MIX if draw < limit)
        if kind == "delete_leaf" and not self._inserted:
            kind = "insert_leaf"
        if kind == "insert_node" and all(self._spare_leaves):
            kind = "delete_node"
        if kind == "delete_node" and not any(self._spare_leaves):
            kind = "insert_node"

        if kind == "update_leaf":
            top = self._zipf_top()
            leaves = self._by_top[top]
            leaf = leaves[rng.randrange(len(leaves))]
            statement: Statement = UpdateStatement(
                "leaf", {"price": self._prices.next(leaf)}, keys=[(leaf,)]
            )
            return Op(statement, (top,), self._top_update(top))
        if kind == "insert_leaf":
            top = self._zipf_top()
            leaf = self._next_leaf
            self._next_leaf += 1
            mid = top + self.spec.tops * rng.randrange(2)
            statement = InsertStatement(
                "leaf",
                [{"id": leaf, "parent_id": mid, "price": self._prices.next(leaf),
                  "code": f"new{leaf}"}],
            )
            self._inserted.append((leaf, top))
            self._leaf_count[top] += 1
            return Op(statement, (top,), self._top_update(top))
        if kind == "delete_leaf":
            leaf, top = self._inserted.pop(0)
            self._leaf_count[top] -= 1
            return Op(DeleteStatement("leaf", keys=[(leaf,)]), (top,), self._top_update(top))
        choices = [
            index for index, leaves in enumerate(self._spare_leaves)
            if bool(leaves) == (kind == "delete_node")
        ]
        spare = choices[rng.randrange(len(choices))]
        top = self.spec.tops + 1 + spare
        if kind == "insert_node":
            leaves = [self._next_leaf, self._next_leaf + 1]
            self._next_leaf += 2
            self._spare_leaves[spare] = leaves
            statement = InsertStatement(
                "leaf",
                [{"id": leaf, "parent_id": 2 * self.spec.tops + 1 + spare,
                  "price": self._prices.next(leaf), "code": f"new{leaf}"}
                 for leaf in leaves],
            )
            return Op(statement, (top,), self._expected("INSERT", f"spare_{spare}"))
        leaves, self._spare_leaves[spare] = self._spare_leaves[spare], []
        return Op(
            DeleteStatement("leaf", keys=[(leaf,) for leaf in leaves]), (top,),
            self._expected("DELETE", f"spare_{spare}"),
        )

    def _spare_rows(self) -> Iterator[Op]:
        """The spare top and mid rows: no leaves yet, so no view node yet."""
        tops = self.spec.tops
        yield Op(InsertStatement("top", [
            {"id": tops + 1 + spare, "name": f"spare_{spare}", "mfr": "maker_s"}
            for spare in range(_SPARE_TOPS)
        ]), None, 0)
        yield Op(InsertStatement("mid1", [
            {"id": 2 * tops + 1 + spare, "parent_id": tops + 1 + spare, "name": f"S{spare}"}
            for spare in range(_SPARE_TOPS)
        ]), None, 0)

    def __iter__(self) -> Iterator[Op]:
        yield from self._spare_rows()
        for position in itertools.count(1):
            if position % DDL_EVERY == 0:
                yield Op(None, None, 0, ddl=self._replace_trigger())
            else:
                yield self._statement()


def open_stream(spec: Spec, seed: int) -> tuple[list[str], Iterator[Op]]:
    """Trigger definitions and the endless operation stream of a workload."""
    if spec.name == "fire_hot":
        return hot_stream(spec, seed)
    if spec.name == "fire_mixed_churn":
        churn = ChurnStream(spec, seed)
        return churn.initial_triggers, iter(churn)
    return spread_stream(spec, seed)


def stream_digest(spec: Spec, seed: int, count: int = 500) -> str:
    """SHA-256 over the trigger definitions and the first ``count`` operations."""
    triggers, ops = open_stream(spec, seed)
    digest = hashlib.sha256()
    for definition in triggers:
        digest.update(definition.encode())
    for op in itertools.islice(ops, count):
        digest.update(repr(op).encode())
    return digest.hexdigest()
