"""Evaluation of XQGM graphs over the relational database.

The evaluator plays two roles:

* it materializes XML views and path graphs for the MATERIALIZED baseline,
  the oracle used in tests, and ad-hoc queries over views;
* it executes the *generated* trigger graphs (affected keys, affected nodes,
  grouped parameters) inside SQL statement triggers, reading the transition
  tables through the :class:`~repro.relational.triggers.TriggerContext`.

Joins use hash joins by default, and — mirroring the join/selection pushdown
the paper inherits from XPERANTO [23] plus the indexes built in Section 6.1 —
switch to *index nested-loop probing* when one side is a base-table scan with
a matching hash index and the other side is already small (the typical shape
after affected-key computation: a handful of keys probing a large table).
This is what keeps trigger evaluation roughly independent of database size
(Figure 23).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import EvaluationError
from repro.relational.database import Database
from repro.relational.triggers import TriggerContext
from repro.xqgm.expressions import predicate_holds
from repro.xqgm.operators import (
    ConstantsOp,
    GroupByOp,
    JoinKind,
    JoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    UnnestOp,
)
from repro.relational.types import sort_key
from repro.xmlmodel.node import Fragment, XmlNode

__all__ = ["EvaluationContext", "evaluate"]

Row = dict[str, Any]

# Probing a base table through an index beats a hash join when the driving
# side is much smaller than the table; this threshold guards the switch.
_PROBE_RATIO = 0.5


@dataclass
class EvaluationContext:
    """Everything needed to evaluate an XQGM graph.

    ``trigger_context`` supplies the transition tables and the pre-update
    table state when the graph contains non-CURRENT table variants.
    ``parameters`` binds :class:`~repro.xqgm.expressions.Parameter`
    expressions (used for correlated grouped evaluation).
    ``constants_tables`` maps constants-table names to their rows
    (Section 5.1).
    """

    database: Database
    trigger_context: TriggerContext | None = None
    parameters: Mapping[str, Any] | None = None
    constants_tables: Mapping[str, Sequence[Mapping[str, Any]]] = field(default_factory=dict)
    collect_stats: bool = False
    stats: dict[str, int] = field(default_factory=dict)
    #: Optional :class:`repro.xqgm.physical.ResultCache` enabling the
    #: version-stamped reuse of STABLE subplan results across statements.
    #: Only consulted by the compiled engines; the interpreter (the oracle)
    #: always evaluates from scratch.
    result_cache: Any = None
    #: The firing statement's evaluation memo
    #: (:attr:`repro.relational.triggers.TriggerContext.evaluation_memo`):
    #: operators the plan compiler marked statement-shared store their rows
    #: here on first computation and read them back for every sibling trigger
    #: group / event translation the statement fires.  ``None`` (evaluation
    #: outside a firing) disables sharing; the interpreter never consults it.
    shared_results: dict | None = None
    #: Statement-shared operators computed / served from ``shared_results``
    #: during this evaluation (always maintained; the service accumulates
    #: them into ``evaluation_report``).
    shared_side_evaluations: int = 0
    shared_side_reuses: int = 0
    #: Number of column batches materialized by the columnar engine
    #: (:mod:`repro.xqgm.columnar`) during this evaluation — one per operator
    #: `_compute`, excluding memo/result-cache hits.  Always maintained (not
    #: gated on ``collect_stats``) so services can report batch counts from
    #: the hot path; the row engines leave it at zero.
    columnar_batches: int = 0

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Increment a stats counter when stats collection is enabled.

        Counters maintained by both engines: per-operator output sizes
        (``rows_<kind>``), ``table_scans``, ``index_probes`` and
        ``hash_joins``; the physical engine additionally counts
        ``cache_hits`` (version-stamped result-cache reuse).
        """
        if self.collect_stats:
            self.stats[counter] = self.stats.get(counter, 0) + amount


def evaluate(top: Operator, context: EvaluationContext) -> list[Row]:
    """Evaluate the graph rooted at ``top`` and return its output tuples."""
    memo: dict[int, list[Row]] = {}
    return _evaluate(top, context, memo)


def _evaluate(op: Operator, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    if op.id in memo:
        return memo[op.id]
    if isinstance(op, TableOp):
        rows = _evaluate_table(op, ctx)
    elif isinstance(op, ConstantsOp):
        rows = _evaluate_constants(op, ctx)
    elif isinstance(op, SelectOp):
        rows = [
            row
            for row in _evaluate(op.input, ctx, memo)
            if predicate_holds(op.predicate, row, ctx.parameters)
        ]
    elif isinstance(op, ProjectOp):
        rows = [
            {name: expr.evaluate(row, ctx.parameters) for name, expr in op.projections}
            for row in _evaluate(op.input, ctx, memo)
        ]
    elif isinstance(op, JoinOp):
        rows = _evaluate_join(op, ctx, memo)
    elif isinstance(op, GroupByOp):
        rows = _evaluate_groupby(op, ctx, memo)
    elif isinstance(op, UnionOp):
        rows = _evaluate_union(op, ctx, memo)
    elif isinstance(op, UnnestOp):
        rows = _evaluate_unnest(op, ctx, memo)
    else:  # pragma: no cover - defensive
        raise EvaluationError(f"cannot evaluate operator {op.kind}")
    memo[op.id] = rows
    ctx._bump(f"rows_{op.kind.lower()}", len(rows))
    return rows


# ---------------------------------------------------------------------------
# Table variants
# ---------------------------------------------------------------------------


def _table_rows(op: TableOp, ctx: EvaluationContext) -> list[tuple]:
    table = ctx.database.table(op.table)
    variant = op.variant
    if variant is TableVariant.CURRENT:
        return table.rows()

    transition = ctx.trigger_context
    if variant is TableVariant.OLD:
        if transition is None or transition.table != op.table:
            # A table untouched by the triggering statement has identical old
            # and new contents (statement triggers see exactly one table's
            # changes at a time).
            return table.rows()
        return transition.old_table_rows()

    if transition is None:
        raise EvaluationError(
            f"table variant {variant.value!r} on {op.table!r} requires a trigger context"
        )
    if transition.table != op.table:
        return []
    # Delta scans read the *net* transition tables: identical to the plain
    # statement tables for per-statement firings, and the whole batch's net
    # delta for batched firings — so every event slice of a batch computes
    # affected keys and compensated old aggregates over the same (complete)
    # change set.
    if variant is TableVariant.DELTA_INSERTED:
        return list(transition.net_inserted.rows)
    if variant is TableVariant.DELTA_DELETED:
        return list(transition.net_deleted.rows)
    if variant is TableVariant.PRUNED_INSERTED:
        return list(transition.net_pruned_inserted().rows)
    if variant is TableVariant.PRUNED_DELETED:
        return list(transition.net_pruned_deleted().rows)
    raise EvaluationError(f"unknown table variant {variant!r}")  # pragma: no cover


def _evaluate_table(op: TableOp, ctx: EvaluationContext) -> list[Row]:
    schema = ctx.database.schema(op.table)
    if op.columns is None:
        op.bind_schema(schema.column_names)
    ctx._bump("table_scans")
    rows = _table_rows(op, ctx)
    column_indexes = [(op.qualified(name), schema.column_index(name)) for name in op.columns]
    return [{qualified: row[index] for qualified, index in column_indexes} for row in rows]


def _evaluate_constants(op: ConstantsOp, ctx: EvaluationContext) -> list[Row]:
    rows = ctx.constants_tables.get(op.name)
    if rows is None:
        raise EvaluationError(f"constants table {op.name!r} not bound in the evaluation context")
    output = []
    for row in rows:
        missing = [c for c in op.output_columns if c not in row]
        if missing:
            raise EvaluationError(
                f"constants table {op.name!r} row is missing columns {missing!r}"
            )
        output.append({c: row[c] for c in op.output_columns})
    return output


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _evaluate_join(op: JoinOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    if op.join_kind is JoinKind.INNER:
        rows = _evaluate_inner_join(op, ctx, memo)
    else:
        rows = _evaluate_two_way_join(op, ctx, memo)
    if op.condition is not None:
        rows = [row for row in rows if predicate_holds(op.condition, row, ctx.parameters)]
    return rows


def _pairs_for(
    accumulated_columns: set[str], new_columns: set[str], equi_pairs: Sequence[tuple[str, str]]
) -> list[tuple[str, str]]:
    """Equi pairs usable when joining the accumulated result with a new input.

    Each returned pair is oriented as (accumulated column, new-input column).
    """
    usable = []
    for a, b in equi_pairs:
        if a in accumulated_columns and b in new_columns:
            usable.append((a, b))
        elif b in accumulated_columns and a in new_columns:
            usable.append((b, a))
    return usable


def _zero_size(database: Database) -> int:
    return 0


def _cost_template(op: Operator) -> tuple[int, Callable[[Database], int]]:
    """Static ``(rank, size estimator)`` summary of an operator subtree.

    The template is structural, so it is computed once and cached on the
    operator (graphs are immutable after translation): ``rank`` 0 marks
    delta-driven subtrees (bounded by transition-table size, estimated ~0),
    2 marks bare base-table scans (probe-friendly — they must come last so
    the index probe can kick in), and 1 everything in between.  The size
    estimator reads current table sizes at evaluation time through a
    compiled closure chain: equi joins and unary operators are bounded by
    their smallest input, while a union's output is the *sum* of its
    branches (the UNION ALL bound; distinct unions are smaller).
    """
    cached = getattr(op, "_cost_template", None)
    if cached is not None:
        return cached
    if isinstance(op, TableOp):
        if op.variant.is_delta:
            template: tuple[int, Callable[[Database], int]] = (0, _zero_size)
        else:
            template = (
                2, lambda database, _name=op.table: len(database.table(_name))
            )
    elif isinstance(op, ConstantsOp):
        template = (0, _zero_size)
    else:
        inner = [_cost_template(input_op) for input_op in op.inputs]
        if not inner:
            template = (1, _zero_size)
        elif isinstance(op, UnionOp):
            rank = min(1, max(r for r, _ in inner))
            sizes = tuple(fn for _, fn in inner)
            template = (
                rank,
                lambda database, _fns=sizes: sum(fn(database) for fn in _fns),
            )
        else:
            # Unary operators and joins are bounded by their smallest input;
            # a subtree with any delta-driven leg is itself delta-driven.
            rank = min(1, min(r for r, _ in inner))
            if rank == 0:
                template = (0, _zero_size)
            elif len(inner) == 1:
                template = (rank, inner[0][1])
            else:
                sizes = tuple(fn for _, fn in inner)
                template = (
                    rank,
                    lambda database, _fns=sizes: min(fn(database) for fn in _fns),
                )
    op._cost_template = template  # idempotent; safe to race under the GIL
    return template


def _input_cost_estimate(
    op: Operator, ctx: EvaluationContext, memo: Mapping[int, Sequence]
) -> tuple:
    """Rough ``(rank, estimated rows)`` ordering heuristic for inner-join inputs.

    Transition-table scans (a handful of rows) should drive the join; bare
    base-table scans should come last so the index-probe path can kick in.
    This mirrors the join ordering a cost-based optimizer picks for the
    generated trigger queries (delta-driven plans, Figure 16).

    Already-evaluated (memoized) inputs report their exact cardinality at
    rank 0.  Unmemoized intermediates derive rank and a cardinality bound
    from their static subtree template instead of a flat ``(1, 0)``: a
    Select over a delta scan ranks with the deltas (tiny), while a GroupBy
    over a base table carries that table's size — so delta-driven
    intermediates drive the join and large stable subtrees sink toward the
    probe-friendly end.  The same function orders the compiled physical
    engine's joins (its memo maps the same logical operator ids to slot
    rows), keeping both engines' output row order identical whenever no
    result-cache hit has skipped a shared subplan's evaluation (a hit
    leaves nodes below it out of the memo, so a later join may fall back
    to the static estimates; the output multiset is unaffected).
    """
    if op.id in memo:
        return (0, len(memo[op.id]))
    rank, size = _cost_template(op)
    return (rank, size(ctx.database))


def _evaluate_inner_join(op: JoinOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    # Order the inputs so that small / delta-driven inputs come first and
    # base-table scans last (probe-friendly); keep relative order for ties.
    indexed = list(enumerate(op.inputs))
    indexed.sort(key=lambda item: (_input_cost_estimate(item[1], ctx, memo), item[0]))
    ordered = [input_op for _, input_op in indexed]

    result: list[Row] | None = None
    result_columns: set[str] = set()
    consumed_pairs: set[tuple[str, str]] = set()
    remaining = list(ordered)

    while remaining:
        if result is None:
            input_op = remaining.pop(0)
            result = list(_evaluate(input_op, ctx, memo))
            result_columns = set(input_op.output_columns)
            continue
        # Prefer the next input that is connected to the accumulated result
        # through an equi pair (avoids intermediate cross products).
        chosen_index = None
        for candidate_index, candidate in enumerate(remaining):
            if _pairs_for(result_columns, set(candidate.output_columns), op.equi_pairs):
                chosen_index = candidate_index
                break
        if chosen_index is None:
            chosen_index = 0
        input_op = remaining.pop(chosen_index)
        input_columns = set(input_op.output_columns)
        pairs = _pairs_for(result_columns, input_columns, op.equi_pairs)
        pairs = [pair for pair in pairs if pair not in consumed_pairs]
        if pairs:
            result = _join_with(result, input_op, pairs, ctx, memo)
            consumed_pairs.update(pairs)
            consumed_pairs.update((b, a) for a, b in pairs)
        else:
            # Cross product (used by CreateAKGraph's union-of-cross-products).
            right_rows = _evaluate(input_op, ctx, memo)
            result = [{**left, **right} for left in result for right in right_rows]
        result_columns |= input_columns
    return result if result is not None else []


def _join_with(
    left_rows: list[Row],
    right_op: Operator,
    pairs: list[tuple[str, str]],
    ctx: EvaluationContext,
    memo: dict[int, list[Row]],
) -> list[Row]:
    left_columns = [a for a, _ in pairs]
    right_columns = [b for _, b in pairs]

    probe_rows = _try_index_probe(left_rows, left_columns, right_op, right_columns, ctx, memo)
    if probe_rows is not None:
        return probe_rows

    right_rows = _evaluate(right_op, ctx, memo)
    ctx._bump("hash_joins")
    # Hash join: build on the smaller side.
    if len(right_rows) <= len(left_rows):
        build_rows, build_cols, probe_rows_, probe_cols = right_rows, right_columns, left_rows, left_columns
        swap = False
    else:
        build_rows, build_cols, probe_rows_, probe_cols = left_rows, left_columns, right_rows, right_columns
        swap = True
    table: dict[tuple, list[Row]] = {}
    for row in build_rows:
        key = tuple(row[c] for c in build_cols)
        table.setdefault(key, []).append(row)
    output: list[Row] = []
    for row in probe_rows_:
        key = tuple(row[c] for c in probe_cols)
        for match in table.get(key, ()):
            output.append({**match, **row} if swap is False else {**row, **match})
    return output


def _try_index_probe(
    left_rows: list[Row],
    left_columns: list[str],
    right_op: Operator,
    right_columns: list[str],
    ctx: EvaluationContext,
    memo: dict[int, list[Row]],
) -> list[Row] | None:
    """Index nested-loop probe of a base table, when profitable and possible.

    Probing works for CURRENT scans and — when the transition tables are
    available — for OLD scans of the updated table: the current table is
    probed through its index and then corrected with the (small) transition
    tables, i.e. ``B_old[probe] = (B[probe] − ΔB) ∪ ∇B[probe]``.  This is the
    index-friendly equivalent of the paper's ``(B EXCEPT ΔB) UNION ∇B``
    reconstruction, and is what keeps the GROUPED strategy's old-side work
    independent of the database size.
    """
    if not isinstance(right_op, TableOp):
        return None
    if right_op.variant not in (TableVariant.CURRENT, TableVariant.OLD):
        return None
    transition = ctx.trigger_context
    old_of_updated_table = (
        right_op.variant is TableVariant.OLD
        and transition is not None
        and transition.table == right_op.table
    )
    if right_op.variant is TableVariant.OLD and transition is not None and not old_of_updated_table:
        # OLD scan of an untouched table is identical to CURRENT.
        old_of_updated_table = False
    if right_op.id in memo:  # already materialized; a hash join is cheaper
        return None
    table = ctx.database.table(right_op.table)
    schema = table.schema
    if right_op.columns is None:
        right_op.bind_schema(schema.column_names)
    # Right-side join columns must all belong to this table operator.
    prefix = f"{right_op.alias}."
    base_columns = []
    for column in right_columns:
        if not column.startswith(prefix):
            return None
        base_columns.append(column[len(prefix):])
    usable = (
        tuple(base_columns) == tuple(schema.primary_key)
        or table.has_index_on(base_columns)
    )
    if not usable:
        return None
    if len(left_rows) > max(16, _PROBE_RATIO * len(table)):
        return None
    ctx._bump("index_probes", len(left_rows))
    column_indexes = [
        (right_op.qualified(name), schema.column_index(name)) for name in right_op.columns
    ]

    inserted_keys: set[tuple] = set()
    deleted_by_probe: dict[tuple, list[tuple]] = {}
    if old_of_updated_table and transition is not None:
        # net_inserted / net_deleted cover the whole batch in batched firings,
        # so the probe correction matches old_table_rows() exactly.
        inserted_keys = {schema.key_of(row) for row in transition.net_inserted}
        probe_indexes = [schema.column_index(column) for column in base_columns]
        for row in transition.net_deleted:
            deleted_by_probe.setdefault(tuple(row[i] for i in probe_indexes), []).append(row)

    output: list[Row] = []
    for left in left_rows:
        probe_value = tuple(left[c] for c in left_columns)
        if tuple(base_columns) == tuple(schema.primary_key):
            match = table.get(probe_value)
            matches = [match] if match is not None else []
        else:
            matches = table.lookup(base_columns, probe_value)
        if old_of_updated_table:
            matches = [row for row in matches if schema.key_of(row) not in inserted_keys]
            matches = matches + deleted_by_probe.get(probe_value, [])
        for row in matches:
            merged = dict(left)
            for qualified, index in column_indexes:
                merged[qualified] = row[index]
            output.append(merged)
    return output


def _evaluate_two_way_join(op: JoinOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    left_op, right_op = op.inputs
    left_rows = _evaluate(left_op, ctx, memo)
    right_rows = _evaluate(right_op, ctx, memo)
    left_cols = set(left_op.output_columns)
    right_cols = set(right_op.output_columns)
    pairs = _pairs_for(left_cols, right_cols, op.equi_pairs)

    ctx._bump("hash_joins")
    table: dict[tuple, list[Row]] = {}
    for row in right_rows:
        key = tuple(row[b] for _, b in pairs)
        table.setdefault(key, []).append(row)

    output: list[Row] = []
    if op.join_kind is JoinKind.ANTI:
        for left in left_rows:
            key = tuple(left[a] for a, _ in pairs)
            matches = table.get(key, [])
            if op.condition is not None:
                matches = [
                    m for m in matches
                    if predicate_holds(op.condition, {**left, **m}, ctx.parameters)
                ]
            if not matches:
                output.append(dict(left))
        return output

    if op.join_kind is JoinKind.LEFT_OUTER:
        null_right = {column: None for column in right_op.output_columns}
        for left in left_rows:
            key = tuple(left[a] for a, _ in pairs)
            matches = table.get(key, [])
            if op.condition is not None:
                matches = [
                    m for m in matches
                    if predicate_holds(op.condition, {**left, **m}, ctx.parameters)
                ]
            if matches:
                for match in matches:
                    output.append({**left, **match})
            else:
                output.append({**left, **null_right})
        return output

    raise EvaluationError(f"unsupported join kind {op.join_kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# GroupBy / Union / Unnest
# ---------------------------------------------------------------------------


def _evaluate_groupby(op: GroupByOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    input_rows = _evaluate(op.input, ctx, memo)
    groups: dict[tuple, list[Row]] = {}
    order: list[tuple] = []
    for row in input_rows:
        key = tuple(row[column] for column in op.grouping)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    if not op.grouping and not groups:
        groups[()] = []
        order.append(())

    output: list[Row] = []
    for key in order:
        rows = groups[key]
        if op.order_within_group:
            rows = sorted(
                rows,
                key=lambda row: tuple(sort_key(row[c]) for c in op.order_within_group),
            )
        out: Row = dict(zip(op.grouping, key))
        for aggregate in op.aggregates:
            out[aggregate.name] = aggregate.compute(rows, ctx.parameters)
        output.append(out)
    return output


def _hashable(value: Any) -> Any:
    if isinstance(value, XmlNode):
        return ("xml", hash(value))
    return value


def _evaluate_union(op: UnionOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    output: list[Row] = []
    seen: set[tuple] = set()
    for input_op, mapping in zip(op.inputs, op.mappings):
        for row in _evaluate(input_op, ctx, memo):
            projected = {
                output_column: row[input_column]
                for output_column, input_column in mapping.items()
            }
            if op.all:
                output.append(projected)
                continue
            fingerprint = tuple(_hashable(projected[c]) for c in op.output_columns)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            output.append(projected)
    return output


def _evaluate_unnest(op: UnnestOp, ctx: EvaluationContext, memo: dict[int, list[Row]]) -> list[Row]:
    output: list[Row] = []
    for row in _evaluate(op.input, ctx, memo):
        value = row.get(op.source_column)
        if value is None:
            continue
        items: Iterable[Any]
        if isinstance(value, Fragment):
            items = list(value.items)
        elif isinstance(value, (list, tuple)):
            items = list(value)
        else:
            items = [value]
        for ordinal, item in enumerate(items):
            new_row = dict(row)
            new_row[op.item_column] = item
            if op.ordinal_column:
                new_row[op.ordinal_column] = ordinal
            output.append(new_row)
    return output
