"""XQGM operators (Table 1 of the paper).

An XQGM graph is a DAG of operators.  Each operator produces a bag of output
tuples; tuples are represented as dictionaries mapping column names to values
(scalars or XML nodes).  Column names are globally meaningful within a graph
(table operators prefix columns with their alias, e.g. ``V.price``), so joins
simply merge tuple dictionaries.

The operator set matches the paper:

========  =====================================================================
Table     scans a relational table (or one of its trigger-time variants:
          the pre-update state ``B_old``, the transition tables ``ΔB`` /
          ``∇B``, or their pruned versions — Section 4.2, Definition 8)
Select    restricts its input by a predicate
Project   computes output columns from input columns (including XML
          element construction)
Join      joins two or more inputs (inner, left-outer, or anti joins; the
          anti joins implement INSERT / DELETE detection in CreateANGraph)
GroupBy   applies aggregate functions (count / sum / min / max / avg /
          aggXMLFrag) per group
Union     unions inputs and removes duplicates (UNION ALL available too)
Unnest    applies super-scalar functions: splits an XML fragment column
          into one tuple per item
Constants scans an in-memory constants table (Section 5.1 trigger grouping)
========  =====================================================================

**Engine contract.**  Two execution engines run these operators — the
interpreted evaluator (:mod:`repro.xqgm.evaluate`, dict rows; the oracle)
and the compiled plan engine (:mod:`repro.xqgm.physical`, slot tuples).
Both must agree value-for-value on every operator, *including output row
order* when no statement-shared result serves a subplan: the
duplicate-column resolution of each join site, the adaptive inner-join
input ordering, first-appearance group order, and union deduplication order
are part of an operator's semantics, not an engine detail.  The
differential property suites under ``tests/property/`` pin this contract;
extend them when adding an operator.
"""

from __future__ import annotations

import enum
import itertools
from typing import Mapping, Sequence

from repro.errors import XqgmError
from repro.xqgm.expressions import AggregateSpec, Expression

__all__ = [
    "TableVariant",
    "JoinKind",
    "Operator",
    "TableOp",
    "SelectOp",
    "ProjectOp",
    "JoinOp",
    "GroupByOp",
    "UnionOp",
    "UnnestOp",
    "ConstantsOp",
]

_operator_counter = itertools.count(1)


class TableVariant(enum.Enum):
    """Which version of a relational table a Table operator reads.

    ``CURRENT`` is the post-statement state.  ``OLD`` is the reconstructed
    pre-statement state ``B_old`` (Section 4.2).  The delta variants are the
    transition tables ``ΔB`` / ``∇B``; the pruned variants additionally drop
    rows whose values did not actually change (Definition 8, Appendix F.1).
    """

    CURRENT = "current"
    OLD = "old"
    DELTA_INSERTED = "delta_inserted"
    DELTA_DELETED = "delta_deleted"
    PRUNED_INSERTED = "pruned_inserted"
    PRUNED_DELETED = "pruned_deleted"

    @property
    def is_delta(self) -> bool:
        """Whether this variant reads a transition table."""
        return self in (
            TableVariant.DELTA_INSERTED,
            TableVariant.DELTA_DELETED,
            TableVariant.PRUNED_INSERTED,
            TableVariant.PRUNED_DELETED,
        )


class JoinKind(enum.Enum):
    """Join flavours used by the view graphs and by CreateANGraph."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    ANTI = "anti"  # left anti join: left tuples with no matching right tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Operator:
    """Base class for XQGM operators."""

    def __init__(self, inputs: Sequence["Operator"], label: str | None = None) -> None:
        self.id = next(_operator_counter)
        self.inputs: list[Operator] = list(inputs)
        self.label = label

    # -- interface -------------------------------------------------------------

    @property
    def output_columns(self) -> tuple[str, ...]:
        """Names of the columns in this operator's output tuples."""
        raise NotImplementedError

    @property
    def kind(self) -> str:
        """Operator kind name (``Table``, ``Select``, ...)."""
        return type(self).__name__.removesuffix("Op")

    def describe(self) -> str:
        """One-line description used by ``explain``/debugging output."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.label!r}" if self.label else ""
        return f"<{self.kind}#{self.id}{tag} cols={list(self.output_columns)}>"


class TableOp(Operator):
    """Scan of a relational table (or one of its trigger-time variants)."""

    def __init__(
        self,
        table: str,
        alias: str | None = None,
        columns: Sequence[str] | None = None,
        variant: TableVariant = TableVariant.CURRENT,
        label: str | None = None,
    ) -> None:
        super().__init__([], label)
        self.table = table
        self.alias = alias or table
        self.columns: tuple[str, ...] | None = tuple(columns) if columns is not None else None
        self.variant = variant

    def qualified(self, column: str) -> str:
        """Qualified output column name for a base-table column."""
        return f"{self.alias}.{column}"

    @property
    def output_columns(self) -> tuple[str, ...]:
        if self.columns is None:
            raise XqgmError(
                f"Table operator {self.alias!r} has not been bound to a schema; "
                "call bind_schema() or construct it with explicit columns"
            )
        return tuple(self.qualified(column) for column in self.columns)

    def bind_schema(self, column_names: Sequence[str]) -> None:
        """Record the base table's column names (usually done by the evaluator)."""
        self.columns = tuple(column_names)

    def describe(self) -> str:
        suffix = "" if self.variant is TableVariant.CURRENT else f" [{self.variant.value}]"
        return f"Table({self.table} AS {self.alias}{suffix})"


class ConstantsOp(Operator):
    """Scan of an in-memory constants table (Section 5.1 trigger grouping).

    The rows are provided at evaluation time through the evaluation context,
    keyed by the constants-table name; each row is a mapping from this
    operator's column names to values.
    """

    def __init__(self, name: str, columns: Sequence[str], label: str | None = None) -> None:
        super().__init__([], label)
        self.name = name
        self._columns = tuple(columns)

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self._columns

    def describe(self) -> str:
        return f"Constants({self.name})"


class SelectOp(Operator):
    """Restrict the input by a predicate expression."""

    def __init__(self, input_op: Operator, predicate: Expression, label: str | None = None) -> None:
        super().__init__([input_op], label)
        self.predicate = predicate

    @property
    def input(self) -> Operator:
        """The single input operator."""
        return self.inputs[0]

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.input.output_columns

    def describe(self) -> str:
        return f"Select({self.predicate})"


class ProjectOp(Operator):
    """Compute output columns from the input tuple.

    ``projections`` is an ordered mapping from output column name to
    expression.  XML element construction happens here (the constructor
    functions of Table 1).
    """

    def __init__(
        self,
        input_op: Operator,
        projections: Sequence[tuple[str, Expression]] | Mapping[str, Expression],
        label: str | None = None,
    ) -> None:
        super().__init__([input_op], label)
        if isinstance(projections, Mapping):
            items = list(projections.items())
        else:
            items = list(projections)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise XqgmError(f"duplicate projection names: {names!r}")
        self.projections: list[tuple[str, Expression]] = items

    @property
    def input(self) -> Operator:
        """The single input operator."""
        return self.inputs[0]

    @property
    def output_columns(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.projections)

    def expression_for(self, name: str) -> Expression:
        """The expression computing the given output column."""
        for column, expression in self.projections:
            if column == name:
                return expression
        raise XqgmError(f"Project has no output column {name!r}")

    def add_projection(self, name: str, expression: Expression) -> None:
        """Add a new output column (used for key propagation, Fig. 8 line 57)."""
        if name in self.output_columns:
            return
        self.projections.append((name, expression))

    def describe(self) -> str:
        return f"Project({', '.join(name for name, _ in self.projections)})"


class JoinOp(Operator):
    """Join of two or more inputs.

    ``condition`` is an arbitrary predicate over the merged tuple; for the
    common equi-join case ``equi_pairs`` lists ``(left_column, right_column)``
    pairs which the evaluator uses to build hash joins.  ``kind`` selects
    inner, left-outer, or (left) anti join.  Anti joins and outer joins are
    only defined for two inputs.
    """

    def __init__(
        self,
        inputs: Sequence[Operator],
        condition: Expression | None = None,
        equi_pairs: Sequence[tuple[str, str]] = (),
        kind: JoinKind = JoinKind.INNER,
        label: str | None = None,
    ) -> None:
        if len(inputs) < 2:
            raise XqgmError("Join requires at least two inputs")
        if kind is not JoinKind.INNER and len(inputs) != 2:
            raise XqgmError(f"{kind} join requires exactly two inputs")
        super().__init__(inputs, label)
        self.condition = condition
        self.equi_pairs: tuple[tuple[str, str], ...] = tuple(
            (str(a), str(b)) for a, b in equi_pairs
        )
        self.join_kind = kind

    @property
    def output_columns(self) -> tuple[str, ...]:
        if self.join_kind is JoinKind.ANTI:
            # Anti join only outputs the left input's columns.
            return self.inputs[0].output_columns
        columns: list[str] = []
        for input_op in self.inputs:
            for column in input_op.output_columns:
                if column not in columns:
                    columns.append(column)
        return tuple(columns)

    def describe(self) -> str:
        parts = []
        if self.equi_pairs:
            parts.append(" AND ".join(f"{a} = {b}" for a, b in self.equi_pairs))
        if self.condition is not None:
            parts.append(str(self.condition))
        condition = " AND ".join(parts) if parts else "true"
        return f"Join[{self.join_kind.value}]({condition})"


class GroupByOp(Operator):
    """Group the input by columns and compute aggregate functions."""

    def __init__(
        self,
        input_op: Operator,
        grouping: Sequence[str],
        aggregates: Sequence[AggregateSpec] = (),
        order_within_group: Sequence[str] = (),
        label: str | None = None,
    ) -> None:
        super().__init__([input_op], label)
        self.grouping: tuple[str, ...] = tuple(grouping)
        self.aggregates: tuple[AggregateSpec, ...] = tuple(aggregates)
        # Deterministic ordering of rows inside each group before aggregation
        # (matters for aggXMLFrag so that fragments are reproducible).
        self.order_within_group: tuple[str, ...] = tuple(order_within_group)
        names = list(self.grouping) + [aggregate.name for aggregate in self.aggregates]
        if len(set(names)) != len(names):
            raise XqgmError(f"duplicate output column names in GroupBy: {names!r}")

    @property
    def input(self) -> Operator:
        """The single input operator."""
        return self.inputs[0]

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.grouping + tuple(aggregate.name for aggregate in self.aggregates)

    def describe(self) -> str:
        aggs = ", ".join(f"{a.name}={a.func}(...)" for a in self.aggregates)
        return f"GroupBy({list(self.grouping)}; {aggs})"


class UnionOp(Operator):
    """Union of two or more inputs (duplicates removed unless ``all=True``).

    Each input may use different column names; ``mappings[i]`` maps every
    output column to the corresponding column of input ``i``.  When an input
    already uses the output column names, its mapping may be omitted
    (``None``).
    """

    def __init__(
        self,
        inputs: Sequence[Operator],
        columns: Sequence[str] | None = None,
        mappings: Sequence[Mapping[str, str] | None] | None = None,
        all: bool = False,
        label: str | None = None,
    ) -> None:
        if not inputs:
            raise XqgmError("Union requires at least one input")
        super().__init__(inputs, label)
        if columns is None:
            columns = inputs[0].output_columns
        self._columns = tuple(columns)
        if mappings is None:
            mappings = [None] * len(self.inputs)
        if len(mappings) != len(self.inputs):
            raise XqgmError("Union: one mapping per input is required")
        self.mappings: list[dict[str, str]] = []
        for input_op, mapping in zip(self.inputs, mappings):
            if mapping is None:
                mapping = {column: column for column in self._columns}
            missing = [c for c in self._columns if c not in mapping]
            if missing:
                raise XqgmError(f"Union mapping missing output columns {missing!r}")
            self.mappings.append(dict(mapping))
        self.all = all

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self._columns

    def describe(self) -> str:
        return f"Union{'All' if self.all else ''}({len(self.inputs)} inputs)"


class UnnestOp(Operator):
    """Split an XML fragment column into one output tuple per item.

    This is the paper's Unnest ("applies super-scalar functions to input").
    Theorem 1 notes that Unnest operators over XML views of relational data
    can always be removed by view composition; the operator is provided for
    completeness and for evaluating user queries over materialized nodes.
    """

    def __init__(
        self,
        input_op: Operator,
        source_column: str,
        item_column: str,
        ordinal_column: str | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__([input_op], label)
        self.source_column = source_column
        self.item_column = item_column
        self.ordinal_column = ordinal_column

    @property
    def input(self) -> Operator:
        """The single input operator."""
        return self.inputs[0]

    @property
    def output_columns(self) -> tuple[str, ...]:
        columns = list(self.input.output_columns)
        if self.item_column not in columns:
            columns.append(self.item_column)
        if self.ordinal_column and self.ordinal_column not in columns:
            columns.append(self.ordinal_column)
        return tuple(columns)

    def describe(self) -> str:
        return f"Unnest({self.source_column} -> {self.item_column})"
