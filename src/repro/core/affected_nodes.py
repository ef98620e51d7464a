"""CreateANGraph — producing (OLD_NODE, NEW_NODE) pairs (Section 4.2.2, Fig. 12).

Given a monitored path graph ``G``, the updated base table ``B``, and the XML
trigger event, ``CreateANGraph`` assembles the graph ``G_affected`` that
produces an ``(OLD_NODE, NEW_NODE)`` pair for every XML node affected by the
relational statement, *without materializing the view*:

1. build the affected-key graphs for ``ΔB`` (over ``G``) and ``∇B`` (over
   ``G_old``, the graph with ``B`` replaced by its pre-update state);
2. union the two key sets;
3. join the keys back with ``G`` to obtain ``NEW_NODE`` and with ``G_old`` to
   obtain ``OLD_NODE``;
4. combine according to the event: inner join for UPDATE (both nodes exist),
   left anti join for INSERT (no old node), right anti join for DELETE
   (no new node);
5. for UPDATE, optionally verify ``OLD_NODE ≠ NEW_NODE`` — unnecessary for
   injective views evaluated with pruned transition tables (Theorem 3 /
   ``CreateANOpt``).

Steps 1–3 do not depend on the event: :func:`create_an_sides` builds steps
1–2 once (:class:`AffectedNodeSides`), the two node sides of step 3 are
joined over them, and :func:`combine_sides` adds the per-event steps 4–5,
referencing the same side operators for all three events.
:func:`create_an_graph` builds the step 3 sides faithfully; the Trigger
Pushdown stage (Section 5) builds optimized ones from the same pieces
(semi-join pushdown of the affected keys, GROUPED-AGG compensation) and
combines them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import TriggerCompilationError
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.triggers import TriggerEvent
from repro.xqgm.expressions import ColumnRef, Constant, Expression
from repro.xqgm.graph import replace_table_variant
from repro.xqgm.keys import derive_keys
from repro.xqgm.operators import (
    JoinKind,
    JoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    TableVariant,
    UnionOp,
)
from repro.xqgm.views import PathGraph
from repro.xmlmodel.node import DeferredElement
from repro.core.affected_keys import AffectedKeyGraph, create_ak_graph

__all__ = [
    "AffectedNodeGraph",
    "AffectedNodeSides",
    "NodesDiffer",
    "nodes_differ",
    "create_an_graph",
    "create_an_sides",
    "combine_sides",
    "OLD_NODE",
    "NEW_NODE",
]

OLD_NODE = "OLD_NODE"
NEW_NODE = "NEW_NODE"


def nodes_differ(old: Any, new: Any) -> bool:
    """``old ≠ new`` for two node values, with deep equality's answer.

    The paper's tagger decides ``OLD_NODE ≠ NEW_NODE`` by comparing the
    serialized nodes (Appendix E.1).  Two elements the compiled engine
    built are decided from their shapes, else from their template texts,
    and are assembled only when those texts are equal
    (:meth:`DeferredElement.differs`); any other pair — the interpreter's
    trees, NULL — compares with ``!=``.
    """
    if type(old) is DeferredElement and type(new) is DeferredElement:
        return old.differs(new)
    return old != new


class NodesDiffer(Expression):
    """Predicate ``OLD_NODE ≠ NEW_NODE``: :func:`nodes_differ` on the two
    node columns — a text comparison, as in the paper's tagger
    (Appendix E.1), wherever the text can tell the nodes apart."""

    def __init__(self, left: str = OLD_NODE, right: str = NEW_NODE) -> None:
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, Any], parameters: Mapping[str, Any] | None = None) -> Any:
        return nodes_differ(row.get(self.left), row.get(self.right))

    def referenced_columns(self) -> set[str]:
        return {self.left, self.right}

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return self

    def uses_parameters(self) -> bool:
        """Hook read by :func:`repro.xqgm.expressions.expression_uses_parameters`:
        the difference check never reads parameter bindings, so an UPDATE
        translation's root is not volatile and its pairs may be shared by
        every trigger group one statement fires.
        """
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left} <> {self.right})"


@dataclass
class AffectedNodeSides:
    """The event-independent inputs of Figure 12, built once per (``G``, ``B``).

    INSERT, UPDATE and DELETE pairs all derive from the same two sub-plans
    over one affected-key union (:attr:`union_keys`) — keys ⋈ ``G``
    (producing ``NEW_NODE``) and keys ⋈ :attr:`g_old_top` (producing
    ``OLD_NODE``); only the last operator differs per event
    (:func:`combine_sides`).  The node sides are built by the caller: the
    faithful ones by :func:`create_an_graph`, the pushed ones by
    :class:`~repro.core.pushdown.SharedSides`.
    """

    table: str
    path_graph: PathGraph
    key_columns: tuple[str, ...]
    old_key_columns: tuple[str, ...]
    covered_key_columns: tuple[str, ...]
    # Intermediate pieces (Figure 12 variable names):
    ak_inserted: AffectedKeyGraph | None
    ak_deleted: AffectedKeyGraph | None
    union_keys: Operator
    union_key_columns: tuple[str, ...]
    g_old_top: Operator

    @property
    def multi_leg_join(self) -> bool:
        """Whether either affected-key graph reached some join through
        several legs (:attr:`AffectedKeyGraph.multi_leg_join`)."""
        return any(
            ak is not None and ak.multi_leg_join for ak in (self.ak_inserted, self.ak_deleted)
        )


@dataclass
class AffectedNodeGraph:
    """``G_affected`` for one event: the per-event combine over shared sides."""

    event: TriggerEvent
    top: Operator
    checks_difference: bool
    sides: AffectedNodeSides

    @property
    def table(self) -> str:
        return self.sides.table

    @property
    def key_columns(self) -> tuple[str, ...]:
        return self.sides.key_columns

    @property
    def node_columns(self) -> tuple[str, str]:
        """Names of the (OLD_NODE, NEW_NODE) output columns."""
        return (OLD_NODE, NEW_NODE)


def create_an_sides(
    path_graph: PathGraph,
    table: str,
    catalog: Database | Mapping[str, TableSchema],
) -> AffectedNodeSides:
    """The event-independent steps of ``CreateANGraph``: affected keys and
    their union.

    The affected keys are read from the pruned transition tables of
    Definition 8 (rows whose values did not change are dropped).
    """
    if isinstance(catalog, Database):
        catalog = {name: catalog.schema(name) for name in catalog.table_names()}

    g_top = path_graph.top
    derive_keys(g_top, catalog)
    key_columns = tuple(path_graph.key_columns)

    # Step 1-2: affected keys for ΔB over G, and for ∇B over G_old.
    ak_inserted = create_ak_graph(g_top, table, TableVariant.PRUNED_INSERTED, catalog)
    g_old_top = replace_table_variant(g_top, table, TableVariant.OLD)
    derive_keys(g_old_top, catalog)
    ak_deleted = create_ak_graph(g_old_top, table, TableVariant.PRUNED_DELETED, catalog)

    if ak_inserted.is_empty and ak_deleted.is_empty:
        raise TriggerCompilationError(
            f"updates to table {table!r} cannot affect the monitored path "
            f"{'/'.join(path_graph.path)!r}"
        )

    # The affected-key graphs may cover only part of the path's canonical key
    # (e.g. an update on an ancestor table identifies affected *ancestor*
    # keys; every nested node under those ancestors is then a candidate).
    # Joining on the covered prefix is exactly the algorithm's invariant.
    covered_key_columns = tuple(
        column
        for column in key_columns
        if all(
            column in dict(ak.key_pairs)
            for ak in (ak_inserted, ak_deleted)
            if not ak.is_empty
        )
    )
    if not covered_key_columns:
        raise TriggerCompilationError(
            f"affected-key graphs for table {table!r} cover none of the path key "
            f"columns {list(key_columns)!r}"
        )

    # Step 3: union of the affected keys, in canonical column names.
    union_key_columns = tuple(f"{column}#key" for column in covered_key_columns)
    union_keys = _union_affected_keys(
        ak_inserted, ak_deleted, covered_key_columns, union_key_columns
    )

    return AffectedNodeSides(
        table=table,
        path_graph=path_graph,
        key_columns=key_columns,
        old_key_columns=tuple(f"{column}#old" for column in key_columns),
        covered_key_columns=covered_key_columns,
        ak_inserted=None if ak_inserted.is_empty else ak_inserted,
        ak_deleted=None if ak_deleted.is_empty else ak_deleted,
        union_keys=union_keys,
        union_key_columns=union_key_columns,
        g_old_top=g_old_top,
    )


def combine_sides(
    event: TriggerEvent,
    new_side: Operator,
    old_side: Operator,
    key_columns: tuple[str, ...],
    old_key_columns: tuple[str, ...],
    check_difference: bool,
) -> Operator:
    """The per-event steps of ``CreateANGraph``: the one join that differs.

    Inner join for UPDATE (both nodes exist; ``check_difference`` adds the
    ``OLD_NODE ≠ NEW_NODE`` selection), left anti join for INSERT (no old
    node), right anti join for DELETE (no new node), then the standard
    output projection.  The sides are referenced, never copied.
    """
    pairs = [(new, old) for new, old in zip(key_columns, old_key_columns)]
    if event is TriggerEvent.UPDATE:
        top: Operator = JoinOp([new_side, old_side], equi_pairs=pairs, label="an-update-join")
        if check_difference:
            top = SelectOp(top, NodesDiffer(), label="old-differs-from-new")
        return _final_projection(top, key_columns, old_key_columns, has_old=True, has_new=True)
    if event is TriggerEvent.INSERT:
        anti = JoinOp(
            [new_side, old_side], equi_pairs=pairs, kind=JoinKind.ANTI, label="an-insert-anti"
        )
        return _final_projection(anti, key_columns, old_key_columns, has_old=False, has_new=True)
    if event is TriggerEvent.DELETE:
        anti = JoinOp(
            [old_side, new_side],
            equi_pairs=[(old, new) for new, old in pairs],
            kind=JoinKind.ANTI,
            label="an-delete-anti",
        )
        return _final_projection(anti, key_columns, old_key_columns, has_old=True, has_new=False)
    raise TriggerCompilationError(f"unknown trigger event {event!r}")  # pragma: no cover


def create_an_graph(
    event: TriggerEvent,
    path_graph: PathGraph,
    table: str,
    catalog: Database | Mapping[str, TableSchema],
    *,
    check_difference: bool | None = None,
) -> AffectedNodeGraph:
    """``CreateANGraph(E, G, B)`` of Figure 12, faithfully: no pushdown.

    ``check_difference`` forces/suppresses the final ``OLD_NODE ≠ NEW_NODE``
    selection for UPDATE events; the default (``None``) is the safe one —
    verify the node actually changed.  Callers suppress the check for
    injective views with pruned transition tables (Theorem 3).
    """
    sides = create_an_sides(path_graph, table, catalog)
    checks = event is TriggerEvent.UPDATE and (
        True if check_difference is None else bool(check_difference)
    )
    # Step 4: join the keys back with G (NEW_NODE) and G_old (OLD_NODE).
    node_sides = [
        _node_side(
            sides.union_keys, sides.union_key_columns, graph_top,
            path_graph.node_column, sides.key_columns,
            node_output=output, key_suffix=suffix, label=label,
            join_columns=sides.covered_key_columns,
        )
        for graph_top, output, suffix, label in (
            (path_graph.top, NEW_NODE, "", "new-nodes"),
            (sides.g_old_top, OLD_NODE, "#old", "old-nodes"),
        )
    ]
    top = combine_sides(event, *node_sides, sides.key_columns, sides.old_key_columns, checks)
    return AffectedNodeGraph(event=event, top=top, checks_difference=checks, sides=sides)


def _union_affected_keys(
    ak_inserted: AffectedKeyGraph,
    ak_deleted: AffectedKeyGraph,
    key_columns: tuple[str, ...],
    union_key_columns: tuple[str, ...],
) -> Operator:
    """``O_u ← Union(G_Δkey, G_∇key)`` with canonical output column names."""
    inputs: list[Operator] = []
    mappings: list[dict[str, str]] = []
    for ak in (ak_inserted, ak_deleted):
        if ak.is_empty:
            continue
        rename = dict(ak.key_pairs)  # graph column -> ak column
        mapping: dict[str, str] = {}
        for graph_column, union_column in zip(key_columns, union_key_columns):
            ak_column = rename.get(graph_column)
            if ak_column is None:
                raise TriggerCompilationError(
                    f"affected-key graph does not cover key column {graph_column!r} "
                    f"(covers {list(rename)!r})"
                )
            mapping[union_column] = ak_column
        inputs.append(ak.op)
        mappings.append(mapping)
    if len(inputs) == 1:
        source, mapping = inputs[0], mappings[0]
        projections = [(union_column, ColumnRef(mapping[union_column])) for union_column in union_key_columns]
        return ProjectOp(source, projections, label="affected-keys")
    return UnionOp(inputs, columns=list(union_key_columns), mappings=mappings, label="affected-keys")


def _node_side(
    union_keys: Operator,
    union_key_columns: tuple[str, ...],
    graph_top: Operator,
    node_column: str,
    key_columns: tuple[str, ...],
    *,
    node_output: str,
    key_suffix: str,
    label: str,
    join_columns: tuple[str, ...] | None = None,
) -> Operator:
    """``Join(O_u.key = G.key)(O_u, G)`` then rename node / key columns.

    ``join_columns`` names the graph key columns the affected keys cover
    (defaults to all of them); the join runs on those, while the projection
    always exposes the full key.
    """
    join_columns = tuple(join_columns) if join_columns is not None else tuple(key_columns)
    pairs = [
        (union_column, graph_column)
        for union_column, graph_column in zip(union_key_columns, join_columns)
    ]
    joined = JoinOp([union_keys, graph_top], equi_pairs=pairs, label=f"{label}-join")
    projections: list[tuple[str, Expression]] = [(node_output, ColumnRef(node_column))]
    for column in key_columns:
        projections.append((f"{column}{key_suffix}", ColumnRef(column)))
    return ProjectOp(joined, projections, label=label)


def _final_projection(
    top: Operator,
    key_columns: tuple[str, ...],
    old_key_columns: tuple[str, ...],
    *,
    has_old: bool,
    has_new: bool,
) -> Operator:
    """Standardize the output: OLD_NODE, NEW_NODE, and the canonical key columns."""
    projections: list[tuple[str, Expression]] = []
    projections.append((OLD_NODE, ColumnRef(OLD_NODE) if has_old else Constant(None)))
    projections.append((NEW_NODE, ColumnRef(NEW_NODE) if has_new else Constant(None)))
    if has_new:
        for column in key_columns:
            projections.append((column, ColumnRef(column)))
    else:
        for column, old_column in zip(key_columns, old_key_columns):
            projections.append((column, ColumnRef(old_column)))
    return ProjectOp(top, projections, label="affected-nodes")
