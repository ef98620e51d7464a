"""Graph rewrites used by the Trigger Pushdown stage (Section 5 of the paper).

Two rewrites are provided:

* :func:`push_semijoin` — selection/join pushdown of the *affected keys* into
  a view graph, so that base tables are only probed for the keys touched by
  the update (the paper: "vendors are only computed for affected products by
  using regular query rewrite techniques to push down the join on affected
  keys [18, 23]").  This is what keeps trigger evaluation independent of the
  database size (Figure 23).

* :func:`compensate_old_aggregates` — the GROUPED-AGG optimization
  (Section 5.2): distributive aggregates (count / sum) over the *pre-update*
  table ``B_old`` are computed from the post-update aggregates and the
  transition tables, "exactly the inverse of the incremental view maintenance
  problem", instead of re-aggregating ``B_old``.  The rewrite reproduces the
  ``deltaCount`` / ``HAVING SUM(...)`` pattern of Figure 16 (lines 27-51) as
  an XQGM construction: ``Union ALL`` of the new-state aggregate with ±1 (or
  ±value) delta rows, re-aggregated with ``sum``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import XqgmError
from repro.xqgm.expressions import (
    AggregateSpec,
    Arithmetic,
    ColumnRef,
    Comparison,
    Constant,
    Expression,
)
from repro.xqgm.graph import clone_graph, walk
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

__all__ = ["push_semijoin", "compensate_old_aggregates", "prune_columns"]


# ---------------------------------------------------------------------------
# Affected-key semi-join pushdown
# ---------------------------------------------------------------------------


def push_semijoin(
    top: Operator,
    pairs: Sequence[tuple[str, str]],
    keys_op: Operator,
) -> Operator:
    """Push a semi-join with the affected-key operator into a view graph.

    ``pairs`` maps graph columns to the corresponding columns of ``keys_op``
    (``(graph_column, key_column)``).  The returned graph computes a superset
    restriction of ``top``: every tuple whose key appears in ``keys_op`` is
    preserved, with all the rows needed to compute its aggregates, while
    unrelated parts of the database are never touched.

    The rewrite never changes aggregate results for surviving keys: the
    restriction is only pushed through operators where the pushed columns
    functionally identify whole groups (grouping columns of a GroupBy, one
    side of a Join providing those columns, pass-through Projects/Selects).
    Where it cannot push further it falls back to a semi-join at that level.
    """
    deduped = _distinct_keys(keys_op, [key_column for _, key_column in pairs])
    return _push(top, list(pairs), deduped)


def _distinct_keys(keys_op: Operator, key_columns: Sequence[str]) -> Operator:
    """Deduplicate the affected keys so the semi-join preserves multiplicity."""
    return GroupByOp(keys_op, list(key_columns), [], label="distinct-affected-keys")


def _semijoin_here(op: Operator, pairs: list[tuple[str, str]], keys_op: Operator) -> Operator:
    """Apply the affected-key restriction as a semi-join directly above ``op``.

    The fallback of :func:`_push` for operators the restriction cannot travel
    through (table scans, anti/outer joins, non-column projections): join
    ``op`` with the deduplicated keys and project the key columns away so the
    operator's output schema is unchanged.
    """
    equi = [(key_column, graph_column) for graph_column, key_column in pairs]
    join = JoinOp([keys_op, op], equi_pairs=equi, label="affected-key-semijoin")
    # Preserve the original operator's output columns (drop the key columns).
    projections = [(column, ColumnRef(column)) for column in op.output_columns]
    return ProjectOp(join, projections, label="semijoin-project")


def _push(op: Operator, pairs: list[tuple[str, str]], keys_op: Operator) -> Operator:
    """Recursively push the key restriction toward the scans it can reach.

    ``pairs`` maps each graph column to the affected-key column restricting
    it.  Selections, column-preserving projections, group-bys keyed on the
    restricted columns, inner joins (including magic-set style propagation
    through equi predicates to sibling inputs) and unions are traversed;
    anything else semi-joins in place via :func:`_semijoin_here`.
    """
    graph_columns = [graph_column for graph_column, _ in pairs]
    if not all(column in op.output_columns for column in graph_columns):
        raise XqgmError(
            f"cannot push semi-join: columns {graph_columns!r} not all present in "
            f"{op.describe()}"
        )

    if isinstance(op, SelectOp):
        if all(column in op.input.output_columns for column in graph_columns):
            return SelectOp(_push(op.input, pairs, keys_op), op.predicate, op.label)
        return _semijoin_here(op, pairs, keys_op)

    if isinstance(op, ProjectOp):
        # Map the pushed columns through the projections; only simple
        # column-to-column projections can be traversed.
        mapped: list[tuple[str, str]] = []
        for graph_column, key_column in pairs:
            expression = op.expression_for(graph_column)
            if isinstance(expression, ColumnRef):
                mapped.append((expression.name, key_column))
            else:
                return _semijoin_here(op, pairs, keys_op)
        return ProjectOp(_push(op.input, mapped, keys_op), list(op.projections), op.label)

    if isinstance(op, GroupByOp):
        if all(column in op.grouping for column in graph_columns):
            return GroupByOp(
                _push(op.input, pairs, keys_op),
                op.grouping,
                op.aggregates,
                op.order_within_group,
                op.label,
            )
        return _semijoin_here(op, pairs, keys_op)

    if isinstance(op, JoinOp) and op.join_kind is JoinKind.INNER:
        new_inputs: list[Operator] = []
        pushed_flags: list[bool] = []
        for input_op in op.inputs:
            local = [
                (graph_column, key_column)
                for graph_column, key_column in pairs
                if graph_column in input_op.output_columns
            ]
            if local:
                new_inputs.append(_push(input_op, local, keys_op))
                pushed_flags.append(True)
            else:
                new_inputs.append(input_op)
                pushed_flags.append(False)
        if not any(pushed_flags):
            return _semijoin_here(op, pairs, keys_op)

        # Transitive (magic-set style) propagation: an input that did not
        # receive the key restriction directly can still be reduced through
        # the join's equi predicates — restrict it to the join values
        # produced by an already-reduced sibling.  This is what lets the
        # affected-key restriction travel down a deep hierarchy (top → mid →
        # leaf) so every level is probed through its foreign-key index.
        for index, input_op in enumerate(op.inputs):
            if pushed_flags[index]:
                continue
            original_columns = set(input_op.output_columns)
            for sibling_index, sibling in enumerate(new_inputs):
                if sibling_index == index or not pushed_flags[sibling_index]:
                    continue
                sibling_columns = set(sibling.output_columns)
                link = [
                    (a, b) if a in original_columns else (b, a)
                    for a, b in op.equi_pairs
                    if (a in original_columns and b in sibling_columns)
                    or (b in original_columns and a in sibling_columns)
                ]
                if not link:
                    continue
                derived_keys = _distinct_keys(sibling, [b for _, b in link])
                try:
                    new_inputs[index] = _push(input_op, link, derived_keys)
                    pushed_flags[index] = True
                except XqgmError:
                    pass
                break
        return JoinOp(new_inputs, op.condition, op.equi_pairs, op.join_kind, op.label)

    if isinstance(op, UnionOp):
        new_inputs = []
        for input_op, mapping in zip(op.inputs, op.mappings):
            local = [(mapping[graph_column], key_column) for graph_column, key_column in pairs]
            new_inputs.append(_push(input_op, local, keys_op))
        return UnionOp(new_inputs, op.output_columns, list(op.mappings), op.all, op.label)

    # Table scans, constants, anti/outer joins, unnest: semi-join at this level.
    return _semijoin_here(op, pairs, keys_op)


# ---------------------------------------------------------------------------
# GROUPED-AGG: compute old aggregates from new aggregates plus deltas
# ---------------------------------------------------------------------------


def compensate_old_aggregates(old_top: Operator, table: str) -> Operator | None:
    """Rewrite ``G_old`` so distributive aggregates avoid scanning ``B_old``.

    Every GroupBy whose input reads the ``OLD`` variant of ``table`` and whose
    aggregates are all distributive (count / sum) is replaced by::

        GroupBy[g; sum(partial)](
            UnionAll(
                GroupBy over the CURRENT-state input   (the new aggregate),
                + per-row contributions of ∇table      (rows removed by the update),
                - per-row contributions of Δtable      (rows added by the update)))

    mirroring Figure 16 lines 27-51.  The graph is rewritten bottom-up and
    each GroupBy is judged on its *rewritten* input: one above an already
    compensated level no longer reads ``B_old`` and stays a plain GroupBy
    over that level's old state.  Returns the rewritten graph, or ``None``
    when the rewrite does not apply (a non-distributive aggregate such as
    ``aggXMLFrag`` / ``min`` / ``max`` needs the actual old rows).
    """
    refused: list[GroupByOp] = []
    rewritten: list[GroupByOp] = []

    def transform(op: Operator, inputs: list[Operator]) -> Operator | None:
        """Swap each GroupBy that still reads ``B_old`` for its compensation."""
        if not isinstance(op, GroupByOp) or not _reads_old_table(inputs[0], table):
            return None
        if not all(aggregate.is_distributive for aggregate in op.aggregates):
            refused.append(op)
            return None
        rewritten.append(op)
        return _compensated_groupby(op, inputs[0], table)

    compensated = clone_graph(old_top, transform=transform)
    if refused:
        return None
    if not rewritten:
        # Nothing to rewrite — the old graph does not aggregate over the table.
        return old_top
    return compensated


def _reads_old_table(op: Operator, table: str) -> bool:
    """Whether any scan below ``op`` reads the OLD variant of ``table``."""
    return any(
        isinstance(node, TableOp) and node.table == table and node.variant is TableVariant.OLD
        for node in walk(op)
    )


def _with_variant(op: Operator, table: str, variant: TableVariant) -> Operator:
    """Clone ``op`` switching OLD scans of ``table`` to ``variant``."""

    def transform(node: Operator, inputs: list[Operator]) -> Operator | None:
        """Rebuild matching OLD scans with the requested variant."""
        if isinstance(node, TableOp) and node.table == table and node.variant is TableVariant.OLD:
            return TableOp(node.table, node.alias, node.columns, variant, node.label)
        return None

    return clone_graph(op, transform=transform)


#: The hidden row count every compensation carries: how many input rows each
#: group had before the update.
_ROWS = "__rows"


def _compensated_groupby(op: GroupByOp, old_input: Operator, table: str) -> Operator:
    """Build the compensated replacement for one GroupBy over ``B_old``."""
    new_input = _with_variant(old_input, table, TableVariant.CURRENT)
    inserted_input = _with_variant(old_input, table, TableVariant.PRUNED_INSERTED)
    deleted_input = _with_variant(old_input, table, TableVariant.PRUNED_DELETED)

    # The view's own aggregates plus the hidden row count, which decides
    # whether a group existed before the update at all.
    aggregates = [*op.aggregates, AggregateSpec(_ROWS, "count")]
    partial_columns = [f"__partial_{aggregate.name}" for aggregate in aggregates]
    union_columns = list(op.grouping) + partial_columns

    # Branch 1: the new-state aggregate values.
    new_aggregate = GroupByOp(
        new_input, op.grouping, aggregates, op.order_within_group, label="agg-new-state"
    )
    new_branch = ProjectOp(
        new_aggregate,
        [(column, ColumnRef(column)) for column in op.grouping]
        + [
            (partial, ColumnRef(aggregate.name))
            for partial, aggregate in zip(partial_columns, aggregates)
        ],
        label="compensate-new",
    )

    # Branch 2: +contribution of every row removed by the update (∇ rows were
    # present before the update but are gone now).
    plus_branch = ProjectOp(
        deleted_input,
        [(column, ColumnRef(column)) for column in op.grouping]
        + [
            (partial, _row_contribution(aggregate, negate=False))
            for partial, aggregate in zip(partial_columns, aggregates)
        ],
        label="compensate-deleted",
    )

    # Branch 3: -contribution of every row added by the update (Δ rows are in
    # the new state but were absent before).
    minus_branch = ProjectOp(
        inserted_input,
        [(column, ColumnRef(column)) for column in op.grouping]
        + [
            (partial, _row_contribution(aggregate, negate=True))
            for partial, aggregate in zip(partial_columns, aggregates)
        ],
        label="compensate-inserted",
    )

    union = UnionOp(
        [new_branch, plus_branch, minus_branch],
        columns=union_columns,
        all=True,
        label="compensation-union",
    )
    summed = GroupByOp(
        union,
        op.grouping,
        [
            AggregateSpec(aggregate.name, "sum", ColumnRef(partial))
            for partial, aggregate in zip(partial_columns, aggregates)
        ],
        label="agg-old-compensated",
    )
    # A group with no row before the update — one the statement created —
    # did not exist (the original GroupBy over B_old produces no row for it):
    # filter it out rather than reporting a phantom old group, then drop the
    # hidden count.
    existed = SelectOp(
        summed, Comparison(">", ColumnRef(_ROWS), Constant(0)), label="drop-phantom-old-groups"
    )
    return ProjectOp(
        existed, [(column, ColumnRef(column)) for column in op.output_columns],
        label="old-groups",
    )


def _row_contribution(aggregate: AggregateSpec, negate: bool) -> Expression:
    """Per-row contribution of a transition-table row to a distributive aggregate."""
    if aggregate.func == "count":
        return Constant(-1 if negate else 1)
    assert aggregate.argument is not None
    if negate:
        return Arithmetic("*", Constant(-1), aggregate.argument)
    return aggregate.argument


# ---------------------------------------------------------------------------
# Projection pruning
# ---------------------------------------------------------------------------


def prune_columns(top: Operator, needed: Sequence[str]) -> Operator:
    """Drop projections and aggregates whose outputs are never used.

    Used by the pushdown stage before applying GROUPED-AGG: when the trigger
    condition and action do not reference the full ``OLD_NODE`` value, the
    old-side graph only needs its key and predicate columns, so expensive
    node-constructing aggregates (``aggXMLFrag``) can be dropped — after
    which the remaining distributive aggregates can be compensated without
    touching ``B_old``.
    """
    needed_set = [column for column in needed if column in top.output_columns]
    missing = set(needed) - set(needed_set)
    if missing:
        raise XqgmError(f"prune_columns: columns {sorted(missing)!r} not produced by the graph")
    return _prune(top, list(dict.fromkeys(needed_set)))


def _prune(op: Operator, needed: list[str]) -> Operator:
    """Rebuild ``op`` keeping only what ``needed`` (transitively) requires.

    Each operator keeps the projections/aggregates whose names are needed,
    folds the columns *they* reference into the requirement, and recurses.
    Scans and constants are shared untouched (their columns are cheap); a
    projection that would end up empty keeps one column so the operator
    still produces rows.
    """
    if isinstance(op, (TableOp, ConstantsOp)):
        return op

    if isinstance(op, SelectOp):
        child_needed = _merge_needed(needed, op.predicate.referenced_columns(), op.input)
        return SelectOp(_prune(op.input, child_needed), op.predicate, op.label)

    if isinstance(op, ProjectOp):
        kept = [(name, expr) for name, expr in op.projections if name in needed]
        if not kept:
            kept = list(op.projections[:1])
        referenced: set[str] = set()
        for _, expression in kept:
            referenced |= expression.referenced_columns()
        child_needed = _merge_needed([], referenced, op.input)
        return ProjectOp(_prune(op.input, child_needed), kept, op.label)

    if isinstance(op, GroupByOp):
        kept_aggregates = [a for a in op.aggregates if a.name in needed]
        referenced = set(op.grouping)
        for aggregate in kept_aggregates:
            referenced |= aggregate.referenced_columns()
        order = [c for c in op.order_within_group if c in op.input.output_columns]
        if any(a.func == "xmlfrag" for a in kept_aggregates):
            referenced |= set(order)
        else:
            order = []
        child_needed = _merge_needed([], referenced, op.input)
        return GroupByOp(
            _prune(op.input, child_needed), op.grouping, kept_aggregates, order, op.label
        )

    if isinstance(op, JoinOp):
        referenced = set(needed)
        for a, b in op.equi_pairs:
            referenced.add(a)
            referenced.add(b)
        if op.condition is not None:
            referenced |= op.condition.referenced_columns()
        new_inputs = []
        for input_op in op.inputs:
            child_needed = [c for c in referenced if c in input_op.output_columns]
            new_inputs.append(_prune(input_op, child_needed))
        return JoinOp(new_inputs, op.condition, op.equi_pairs, op.join_kind, op.label)

    if isinstance(op, UnionOp):
        # A DISTINCT union deduplicates on every column: narrowing it would
        # change which rows count as duplicates (and so every count above).
        kept_columns = list(op.output_columns)
        if op.all:
            kept_columns = [c for c in kept_columns if c in needed] or kept_columns
        new_inputs = []
        new_mappings = []
        for input_op, mapping in zip(op.inputs, op.mappings):
            child_needed = [mapping[c] for c in kept_columns]
            new_inputs.append(_prune(input_op, child_needed))
            new_mappings.append({c: mapping[c] for c in kept_columns})
        return UnionOp(new_inputs, kept_columns, new_mappings, op.all, op.label)

    if isinstance(op, UnnestOp):
        child_needed = _merge_needed(needed, {op.source_column}, op.input)
        return UnnestOp(
            _prune(op.input, child_needed),
            op.source_column,
            op.item_column,
            op.ordinal_column,
            op.label,
        )

    return op  # pragma: no cover - defensive


def _merge_needed(needed: Sequence[str], extra: Sequence[str] | set[str], input_op: Operator) -> list[str]:
    """Union two column requirements, restricted to what ``input_op`` produces."""
    merged = list(dict.fromkeys(list(needed) + list(extra)))
    return [column for column in merged if column in input_op.output_columns]
