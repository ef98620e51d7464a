"""CreateAKGraph — finding affected keys (Section 4.2.1, Figure 8).

Given the XQGM graph of a monitored path, the updated base table ``T``, and a
transition table ``dT`` (``ΔT`` or ``∇T``), ``CreateAKGraph`` builds a new
XQGM graph which, joined with the original graph on the canonical key,
produces exactly those output tuples affected by the relational update —
*even in the presence of nested predicates* (the case that defeats classic
view-maintenance change propagation, Section 4.1).

The key idea (mirrored here operator by operator):

* ``Table``: the affected keys of the updated table are simply the primary
  keys of the transition table.
* ``GroupBy``: *restrict* the operator's original input to its affected
  tuples, then project the distinct grouping-column values — any group
  containing an affected input tuple is itself affected.
* ``Select`` / ``Project``: pass the affected keys through unchanged, making
  sure the key columns are propagated to the operator's output (Figure 8,
  line 57).
* ``Join``: a union over the affected legs — the join restricted to the
  affected tuples of one leg, the other legs reduced through the join's own
  predicates.
* ``Union``: union of the per-input affected keys, each input restricted
  and mapped to output columns.

All three cases restrict the same way (:func:`_restricted`): the input is
pruned to the columns read (keys, join columns, and whatever the view's
predicates reference, so no XML is constructed for it), the affected keys
are pushed into it as semi-joins, and the result is joined with them.

Because the affected-key graph re-uses the *original* operators of the view
graph (shared subgraphs), evaluating it sees complete groups rather than just
transition-table tuples, which is what makes nested predicates such as
``count(...) >= 2`` come out right (the ``Δvendor`` example of Section 4.1).

The affected-key columns are renamed with an ``…#ak…`` suffix so they never
collide with the original graph's columns; the returned
:class:`AffectedKeyGraph` records the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import TriggerCompilationError
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.xqgm.expressions import ColumnRef
from repro.xqgm.graph import ensure_columns
from repro.xqgm.rewrite import prune_columns, push_semijoin
from repro.xqgm.operators import (
    ConstantsOp,
    GroupByOp,
    JoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    UnnestOp,
)

__all__ = ["AffectedKeyGraph", "create_ak_graph"]


@dataclass
class AffectedKeyGraph:
    """Result of ``CreateAKGraph`` for one operator.

    ``op`` is the top operator of the affected-key graph (``None`` when the
    update cannot affect the subgraph at all).  ``key_pairs`` associates each
    canonical-key column of the original operator with the corresponding
    column of the affected-key graph — joining the two graphs on these pairs
    yields exactly the affected tuples (the algorithm's invariant).
    """

    op: Operator | None
    key_pairs: tuple[tuple[str, str], ...]
    #: Whether some join below was reached through more than one leg.  Its
    #: affected tuples then include rows that did not change themselves —
    #: the other legs' rows joined with a changed one (siblings under an
    #: affected ancestor) — and only the ``OLD_NODE ≠ NEW_NODE`` check tells
    #: them apart, which a keys-only GROUPED-AGG old side cannot do.
    multi_leg_join: bool = False

    @property
    def is_empty(self) -> bool:
        """True when the relational update cannot affect the monitored graph."""
        return self.op is None

    @property
    def graph_columns(self) -> tuple[str, ...]:
        """The original graph's key columns."""
        return tuple(graph_column for graph_column, _ in self.key_pairs)

    @property
    def key_columns(self) -> tuple[str, ...]:
        """The affected-key graph's key columns."""
        return tuple(key_column for _, key_column in self.key_pairs)


def create_ak_graph(
    op: Operator,
    table: str,
    delta_variant: TableVariant,
    catalog: Database | Mapping[str, TableSchema],
) -> AffectedKeyGraph:
    """``CreateAKGraph(O, T, dT)`` of Figure 8.

    ``delta_variant`` selects which transition table plays the role of ``dT``
    (``DELTA_INSERTED`` / ``DELTA_DELETED``, or their pruned versions for the
    Appendix F optimization).
    """
    if isinstance(catalog, Database):
        catalog = {name: catalog.schema(name) for name in catalog.table_names()}
    return _create(op, table, delta_variant, catalog)


def _ak_suffix(op: Operator) -> str:
    """Per-operator rename suffix keeping affected-key columns collision-free."""
    return f"#ak{op.id}"


def _create(
    op: Operator,
    table: str,
    delta_variant: TableVariant,
    catalog: Mapping[str, TableSchema],
) -> AffectedKeyGraph:
    """Recursive core of CreateAKGraph: one Figure 8 case per operator kind.

    Returns the affected-key graph of ``op``'s output (empty when the updated
    table is unreachable below ``op``).  Join and union cases are split out
    into :func:`_create_for_join` / :func:`_create_for_union`.
    """
    # ---- Table -----------------------------------------------------------------
    if isinstance(op, TableOp):
        if op.table != table:
            return AffectedKeyGraph(None, ())
        schema = catalog.get(op.table)
        if schema is None or not schema.primary_key:
            raise TriggerCompilationError(
                f"table {op.table!r} needs a primary key for affected-key computation"
            )
        delta_alias = f"{op.alias}{_ak_suffix(op)}"
        delta_table = TableOp(
            op.table, delta_alias, schema.column_names, delta_variant,
            label=f"dT[{op.alias}]",
        )
        projections = [
            (delta_table.qualified(column), ColumnRef(delta_table.qualified(column)))
            for column in schema.primary_key
        ]
        projected = ProjectOp(delta_table, projections, label=f"ak-keys[{op.alias}]")
        pairs = tuple(
            (op.qualified(column), delta_table.qualified(column))
            for column in schema.primary_key
        )
        return AffectedKeyGraph(projected, pairs)

    # ---- Constants -------------------------------------------------------------
    if isinstance(op, ConstantsOp):
        return AffectedKeyGraph(None, ())

    # ---- GroupBy ----------------------------------------------------------------
    if isinstance(op, GroupByOp):
        inner = _create(op.input, table, delta_variant, catalog)
        if inner.is_empty:
            return AffectedKeyGraph(None, ())
        # Join the operator's original input with the affected keys of that
        # input (Figure 8, line 15); only keys are read from it (Figure 16's
        # AffectedKeys CTE selects nothing else).
        joined = _restricted(op.input, inner, op.grouping, f"ak-join[group#{op.id}]")
        grouped = GroupByOp(joined, op.grouping, [], label=f"ak-groups[#{op.id}]")
        suffix = _ak_suffix(op)
        projections = [
            (f"{column}{suffix}", ColumnRef(column)) for column in op.grouping
        ]
        projected = ProjectOp(grouped, projections, label=f"ak-group-keys[#{op.id}]")
        pairs = tuple((column, f"{column}{suffix}") for column in op.grouping)
        return AffectedKeyGraph(projected, pairs, inner.multi_leg_join)

    # ---- Select / Project --------------------------------------------------------
    if isinstance(op, (SelectOp, ProjectOp, UnnestOp)):
        inner = _create(op.inputs[0], table, delta_variant, catalog)
        if inner.is_empty:
            return AffectedKeyGraph(None, ())
        # Ensure the operator propagates the key columns ("Add K to
        # O.outputColumns", line 57).
        ensure_columns(op, list(inner.graph_columns))
        return inner

    # ---- Join ----------------------------------------------------------------------
    if isinstance(op, JoinOp):
        return _create_for_join(op, table, delta_variant, catalog)

    # ---- Union ---------------------------------------------------------------------
    if isinstance(op, UnionOp):
        return _create_for_union(op, table, delta_variant, catalog)

    raise TriggerCompilationError(
        f"CreateAKGraph cannot handle operator {op.kind}"
    )  # pragma: no cover


def _create_for_join(
    op: JoinOp,
    table: str,
    delta_variant: TableVariant,
    catalog: Mapping[str, TableSchema],
) -> AffectedKeyGraph:
    """Join case of Figure 8 (lines 36-39): one branch per affected leg.

    With one affected leg the restriction passes through unchanged.  When
    the updated table reaches the join through several legs, each branch is
    the join itself restricted to the affected tuples of one leg
    (:func:`_restricted`) — the join keeps its own predicates, so the other
    legs are reduced through them rather than crossed whole — and the
    branches are unioned on the join's canonical key.

    A nested path joins the parent level with a scan of the parent's table
    under the parent's own alias (``path-link``, see
    :meth:`~repro.xqgm.views.ViewDefinition.path_graph`), so two legs may
    name a column alike.  That is safe here: the only such column is the
    parent element key the two legs are joined on, equal in every joined row.
    """
    results = [_create(input_op, table, delta_variant, catalog) for input_op in op.inputs]
    affected = [(i, result) for i, result in enumerate(results) if not result.is_empty]
    if not affected:
        return AffectedKeyGraph(None, ())
    if len(affected) == 1:
        _, inner = affected[0]
        ensure_columns(op, list(inner.graph_columns))
        return inner

    join_key = getattr(op, "canonical_key", None)
    if not join_key:
        raise TriggerCompilationError(
            "Join operator has no derived canonical key; run derive_keys() first"
        )
    ensure_columns(op, list(join_key))
    suffix = _ak_suffix(op)
    branches: list[Operator] = []
    for index, inner in affected:
        restricted = _restricted(op, inner, join_key, f"ak-join[#{op.id}:{index}]")
        projections = [(f"{column}{suffix}", ColumnRef(column)) for column in join_key]
        branches.append(ProjectOp(restricted, projections, label=f"ak-branch[#{op.id}:{index}]"))
    output_columns = [f"{column}{suffix}" for column in join_key]
    union = UnionOp(branches, columns=output_columns, label=f"ak-union[#{op.id}]")
    pairs = tuple((column, f"{column}{suffix}") for column in join_key)
    return AffectedKeyGraph(union, pairs, multi_leg_join=True)


def _create_for_union(
    op: UnionOp,
    table: str,
    delta_variant: TableVariant,
    catalog: Mapping[str, TableSchema],
) -> AffectedKeyGraph:
    """Union case of Figure 8: per-input affected keys mapped to output columns."""
    union_key = getattr(op, "canonical_key", None)
    if not union_key:
        raise TriggerCompilationError(
            "Union operator has no derived canonical key; run derive_keys() first"
        )
    suffix = _ak_suffix(op)
    branches: list[Operator] = []
    multi_leg_join = False
    for input_op, mapping in zip(op.inputs, op.mappings):
        inner = _create(input_op, table, delta_variant, catalog)
        if inner.is_empty:
            continue
        multi_leg_join = multi_leg_join or inner.multi_leg_join
        # Restrict the input to its affected tuples, then project the union's
        # key columns (mapped through this input's column mapping).
        input_key = [mapping[output_column] for output_column in union_key]
        joined = _restricted(input_op, inner, input_key, f"ak-union-join[#{op.id}]")
        projections = [
            (f"{output_column}{suffix}", ColumnRef(input_column))
            for output_column, input_column in zip(union_key, input_key)
        ]
        branches.append(ProjectOp(joined, projections, label=f"ak-union-branch[#{op.id}]"))
    if not branches:
        return AffectedKeyGraph(None, ())
    output_columns = [f"{column}{suffix}" for column in union_key]
    if len(branches) == 1:
        union: Operator = branches[0]
    else:
        union = UnionOp(branches, columns=output_columns, label=f"ak-union[#{op.id}]")
    pairs = tuple((column, f"{column}{suffix}") for column in union_key)
    return AffectedKeyGraph(union, pairs, multi_leg_join)


def _restricted(
    source: Operator, inner: AffectedKeyGraph, columns: Sequence[str], label: str
) -> Operator:
    """``source`` restricted to its affected tuples, reading only keys.

    ``source`` is pruned to ``columns`` plus the affected-key columns (a
    join also keeps its join columns, a select its predicate's), so no
    element constructor or ``xmlfrag`` aggregate is evaluated for it; the
    affected keys are pushed into it as semi-joins, so it is driven by the
    transition tables instead of scanned; and the result is joined with the
    keys on :attr:`AffectedKeyGraph.key_pairs`.
    """
    ensure_columns(source, list(inner.graph_columns))
    pruned = prune_columns(source, list(columns) + list(inner.graph_columns))
    reduced = push_semijoin(pruned, list(inner.key_pairs), inner.op)
    return JoinOp([reduced, inner.op], equi_pairs=list(inner.key_pairs), label=label)
