"""Rendering generated trigger plans as SQL (Figure 16 of the paper).

The executable form of a translated trigger in this system is an XQGM plan
evaluated by the relational engine.  This module renders such a plan as SQL
text, in one of two *dialects*:

``readable`` (the default)
    The Figure 16 reproduction: one common-table expression per operator,
    XML construction shown with the SQL/XML ``XMLELEMENT`` / ``XMLAGG``
    functions (as DB2 would), transition tables referenced as ``INSERTED``
    / ``DELETED``, and the pre-update table as the ``(B EXCEPT ΔB) UNION
    ∇B`` derived table.  This rendering is faithful to the plan's structure
    but meant for humans (and golden-file tests), not for execution.

``sqlite`` (via :func:`lower_plan_for_sqlite`)
    An *executable* lowering targeted at SQLite, used by the SQLite
    execution backend (:mod:`repro.backends.sqlite`).  The plan becomes a
    single ``WITH ... SELECT`` statement:

    * transition tables are read from per-firing temp tables (the backend
      materializes the net coalesced deltas under the
      :func:`transition_table_name` names before running the statement);
    * the pre-update table ``B_old`` is reconstructed by primary key,
      ``(B WHERE pk NOT IN ΔB) UNION ALL ∇B`` — exactly the semantics of
      :meth:`repro.relational.triggers.TriggerContext.old_table_rows`;
    * XML construction has no SQL/XML functions in SQLite, so constructed
      nodes travel as **JSON construction trees** built with the ``json1``
      functions (``json_array`` / ``json_object`` / ``json_group_array``);
      a Python-side finishing pass (:func:`repro.backends.sqlite.finish_node`)
      re-assembles real :class:`~repro.xmlmodel.node.Element` /
      :class:`~repro.xmlmodel.node.Fragment` values from the JSON, sorting
      ``aggXMLFrag`` items by their embedded order keys;
    * join equi-pairs use the NULL-safe ``IS`` comparison, matching the
      interpreter's hash joins (where ``NULL`` keys compare equal).

    Constructs the dialect cannot express faithfully (``Unnest``,
    constants-table scans, parameters, ``B_old`` of a keyless table, ...)
    raise :class:`SqlLoweringError`, and a service with the SQLite backend
    fails ``CREATE TRIGGER`` for that plan; the in-memory engines remain the
    oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ReproError
from repro.relational.schema import TableSchema
from repro.relational.triggers import TriggerEvent
from repro.xqgm.expressions import (
    AggregateSpec,
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Constant,
    ElementConstructor,
    Expression,
    IsNull,
    Parameter,
    TextConstructor,
)
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

__all__ = [
    "render_sql_trigger",
    "render_plan_sql",
    "render_expression",
    "SqlLoweringError",
    "LoweredSqlitePlan",
    "lower_plan_for_sqlite",
    "transition_table_name",
]


class SqlLoweringError(ReproError):
    """The plan uses a construct the target SQL dialect cannot express.

    Raised only by the *executable* lowerings; the readable dialect always
    succeeds.  The SQLite backend turns it into a refused ``CREATE TRIGGER``.
    """


#: Transition-table variants that are materialized as temp tables.
_TRANSITION_VARIANTS = frozenset(
    {
        TableVariant.DELTA_INSERTED,
        TableVariant.DELTA_DELETED,
        TableVariant.PRUNED_INSERTED,
        TableVariant.PRUNED_DELETED,
    }
)


def transition_table_name(table: str, variant: TableVariant) -> str:
    """Temp-table name under which the execution backend materializes one of
    ``table``'s net transition tables before running a lowered statement.
    Names are per base table so one connection can host every trigger."""
    return f"__trg_{table}_{variant.value}"


def _identifier(name: str) -> str:
    """Render a column name as a SQL identifier (quote qualified names)."""
    if name.replace("_", "").isalnum() and not name[0].isdigit():
        return name
    return '"' + name.replace('"', '""') + '"'


def _quoted(name: str) -> str:
    """Always-quoted identifier (executable dialect: never collides with keywords)."""
    return '"' + name.replace('"', '""') + '"'


def _string_literal(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# Readable (DB2-flavored) expression rendering — the Figure 16 style
# ---------------------------------------------------------------------------


def render_expression(expression: Expression) -> str:
    """Render a tuple-level expression as (readable) SQL text."""
    if isinstance(expression, ColumnRef):
        return _identifier(expression.name)
    if isinstance(expression, Constant):
        value = expression.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, (int, float)):
            return repr(value)
        return "'" + str(value).replace("'", "''") + "'"
    if isinstance(expression, Parameter):
        return f":{expression.name}"
    if isinstance(expression, Comparison):
        return (
            f"({render_expression(expression.left)} {expression.op} "
            f"{render_expression(expression.right)})"
        )
    if isinstance(expression, Arithmetic):
        return (
            f"({render_expression(expression.left)} {expression.op} "
            f"{render_expression(expression.right)})"
        )
    if isinstance(expression, BooleanExpr):
        if expression.op == "not":
            return f"(NOT {render_expression(expression.operands[0])})"
        joiner = f" {expression.op.upper()} "
        return "(" + joiner.join(render_expression(o) for o in expression.operands) + ")"
    if isinstance(expression, IsNull):
        suffix = "IS NOT NULL" if expression.negate else "IS NULL"
        return f"({render_expression(expression.operand)} {suffix})"
    if isinstance(expression, ElementConstructor):
        parts = [f"NAME \"{expression.name}\""]
        if expression.attributes:
            attributes = ", ".join(
                f"{render_expression(a.value)} AS \"{a.name}\"" for a in expression.attributes
            )
            parts.append(f"XMLATTRIBUTES({attributes})")
        labels = expression.child_labels or (None,) * len(expression.children)
        for label, child in zip(labels, expression.children):
            rendered = render_expression(child)
            if label is not None:
                rendered = f"XMLELEMENT(NAME \"{label}\", {rendered})"
            parts.append(rendered)
        return "XMLELEMENT(" + ", ".join(parts) + ")"
    if isinstance(expression, TextConstructor):
        return f"XMLTEXT({render_expression(expression.value)})"
    # Fall back to the expression's own string form (e.g. NodesDiffer).
    return str(expression)


def _render_aggregate(aggregate: AggregateSpec) -> str:
    if aggregate.func == "count":
        argument = "*" if aggregate.argument is None else render_expression(aggregate.argument)
        return f"COUNT({argument}) AS {_identifier(aggregate.name)}"
    if aggregate.func == "xmlfrag":
        return f"XMLAGG({render_expression(aggregate.argument)}) AS {_identifier(aggregate.name)}"
    return f"{aggregate.func.upper()}({render_expression(aggregate.argument)}) AS {_identifier(aggregate.name)}"


_VARIANT_SQL = {
    TableVariant.CURRENT: "{table}",
    TableVariant.OLD: "(SELECT * FROM {table} EXCEPT SELECT * FROM INSERTED UNION SELECT * FROM DELETED)",
    TableVariant.DELTA_INSERTED: "INSERTED",
    TableVariant.DELTA_DELETED: "DELETED",
    TableVariant.PRUNED_INSERTED: "(SELECT * FROM INSERTED EXCEPT ALL SELECT * FROM DELETED)",
    TableVariant.PRUNED_DELETED: "(SELECT * FROM DELETED EXCEPT ALL SELECT * FROM INSERTED)",
}


class _Renderer:
    """Readable-dialect CTE renderer (one CTE per operator, DB2 flavor)."""

    def __init__(self) -> None:
        self.cte_lines: list[str] = []
        self.names: dict[int, str] = {}
        self.counter = 0

    def name_for(self, op: Operator) -> str:
        if op.id not in self.names:
            self.counter += 1
            label = (op.label or op.kind).replace("[", "_").replace("]", "").replace("-", "_")
            label = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in label)
            self.names[op.id] = f"q{self.counter}_{label}"
        return self.names[op.id]

    # -- operator rendering -------------------------------------------------------

    def render(self, op: Operator) -> str:
        """Render the subplan rooted at ``op``; returns its CTE name."""
        if op.id in self.names:
            return self.names[op.id]
        input_names = [self.render(input_op) for input_op in op.inputs]
        name = self.name_for(op)
        body = self._body(op, input_names)
        self.cte_lines.append(f"{name} AS (\n{_indent(body, 2)}\n)")
        return name

    def _body(self, op: Operator, inputs: list[str]) -> str:
        if isinstance(op, TableOp):
            source = _VARIANT_SQL[op.variant].format(table=op.table)
            columns = ", ".join(
                f"{op.alias}.{column} AS {_identifier(op.qualified(column))}" for column in op.columns
            )
            return f"SELECT {columns}\nFROM {source} AS {op.alias}"
        if isinstance(op, ConstantsOp):
            columns = ", ".join(_identifier(column) for column in op.output_columns)
            return f"SELECT {columns}\nFROM {op.name}"
        if isinstance(op, SelectOp):
            return (
                f"SELECT *\nFROM {inputs[0]}\nWHERE {render_expression(op.predicate)}"
            )
        if isinstance(op, ProjectOp):
            columns = ",\n       ".join(
                f"{render_expression(expression)} AS {_identifier(name)}"
                for name, expression in op.projections
            )
            return f"SELECT {columns}\nFROM {inputs[0]}"
        if isinstance(op, JoinOp):
            return self._join_body(op, inputs)
        if isinstance(op, GroupByOp):
            select_items = [f"{_identifier(column)}" for column in op.grouping]
            select_items += [_render_aggregate(aggregate) for aggregate in op.aggregates]
            body = f"SELECT {', '.join(select_items) if select_items else '1'}\nFROM {inputs[0]}"
            if op.grouping:
                body += f"\nGROUP BY {', '.join(_identifier(c) for c in op.grouping)}"
            return body
        if isinstance(op, UnionOp):
            keyword = "UNION ALL" if op.all else "UNION"
            selects = []
            for input_name, mapping in zip(inputs, op.mappings):
                columns = ", ".join(
                    f"{_identifier(mapping[column])} AS {_identifier(column)}"
                    for column in op.output_columns
                )
                selects.append(f"SELECT {columns} FROM {input_name}")
            return f"\n{keyword}\n".join(selects)
        if isinstance(op, UnnestOp):
            return (
                f"SELECT {inputs[0]}.*, item.value AS {_identifier(op.item_column)}\n"
                f"FROM {inputs[0]}, XMLTABLE({_identifier(op.source_column)}) AS item"
            )
        return f"SELECT * FROM {inputs[0] if inputs else 'VALUES(1)'}"  # pragma: no cover

    def _join_body(self, op: JoinOp, inputs: list[str]) -> str:
        conditions = [f"{_identifier(a)} = {_identifier(b)}" for a, b in op.equi_pairs]
        if op.condition is not None:
            conditions.append(render_expression(op.condition))
        condition_text = " AND ".join(conditions) if conditions else "1 = 1"
        if op.join_kind is JoinKind.INNER:
            return f"SELECT *\nFROM {', '.join(inputs)}\nWHERE {condition_text}"
        if op.join_kind is JoinKind.LEFT_OUTER:
            return (
                f"SELECT *\nFROM {inputs[0]} LEFT OUTER JOIN {inputs[1]}\n  ON {condition_text}"
            )
        # Anti join
        return (
            f"SELECT *\nFROM {inputs[0]}\nWHERE NOT EXISTS (SELECT 1 FROM {inputs[1]} "
            f"WHERE {condition_text})"
        )


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line for line in text.splitlines())


# ---------------------------------------------------------------------------
# Executable SQLite lowering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoweredSqlitePlan:
    """One trigger plan lowered to an executable SQLite statement.

    ``sql`` is a complete ``WITH ... SELECT`` whose result columns are the
    requested final columns in order.  Columns named in ``node_columns``
    carry JSON construction trees (finish with
    :func:`repro.backends.sqlite.finish_node`); every other column is a
    plain scalar.  Before executing, the backend must materialize each
    variant in ``required_variants`` as a temp table named per
    :data:`TRANSITION_TABLE_NAMES`, holding the firing's **net** transition
    rows in the trigger table's column order.
    """

    table: str
    sql: str
    final_columns: tuple[str, ...]
    node_columns: frozenset[str]
    required_variants: frozenset[TableVariant]


class _SqliteExpr:
    """Expression lowering for the SQLite dialect.

    ``node_columns`` is the set of input columns holding JSON construction
    trees; referencing one from a scalar context (arithmetic, comparisons,
    non-``xmlfrag`` aggregates other than ``count``) cannot reproduce the
    interpreter's atomization semantics and raises :class:`SqlLoweringError`.
    """

    def __init__(self, node_columns: frozenset[str]) -> None:
        self.node_columns = node_columns

    # -- scalar / node dispatch -------------------------------------------------

    def value(self, expression: Expression) -> tuple[str, bool]:
        """Lower an expression; returns ``(sql, is_node)``."""
        if self.is_node(expression):
            return self.node(expression), True
        return self.scalar(expression), False

    def is_node(self, expression: Expression) -> bool:
        if isinstance(expression, (ElementConstructor, TextConstructor)):
            return True
        if isinstance(expression, ColumnRef):
            return expression.name in self.node_columns
        return False

    # -- scalars ----------------------------------------------------------------

    def scalar(self, expression: Expression) -> str:
        if isinstance(expression, ColumnRef):
            if expression.name in self.node_columns:
                raise SqlLoweringError(
                    f"column {expression.name!r} holds constructed XML; SQLite "
                    "cannot atomize it inside a scalar expression"
                )
            return _quoted(expression.name)
        if isinstance(expression, Constant):
            value = expression.value
            if value is None:
                return "NULL"
            if isinstance(value, bool):
                return "1" if value else "0"
            if isinstance(value, int):
                return repr(value)
            if isinstance(value, float):
                if value != value or value in (float("inf"), float("-inf")):
                    raise SqlLoweringError(f"non-finite constant {value!r}")
                return repr(value)
            if isinstance(value, str):
                return _string_literal(value)
            raise SqlLoweringError(f"unsupported constant {value!r}")
        if isinstance(expression, Parameter):
            raise SqlLoweringError(
                f"parameter :{expression.name} — generated trigger statements "
                "bind no parameters at firing time"
            )
        if isinstance(expression, Comparison):
            op = "<>" if expression.op == "!=" else expression.op
            return f"({self.scalar(expression.left)} {op} {self.scalar(expression.right)})"
        if isinstance(expression, Arithmetic):
            left = self.scalar(expression.left)
            right = self.scalar(expression.right)
            if expression.op == "/":
                # Python "/" is true division; SQLite "/" truncates on integers.
                # (Division by zero still diverges: the interpreter raises,
                # SQLite yields NULL — documented in docs/backends.md.)
                return f"(CAST({left} AS REAL) / {right})"
            if expression.op == "%":
                # SQLite "%" is a truncated remainder; Python's is floored
                # (-7 % 3 is 2 in Python, -1 in SQLite).  Inexpressible
                # faithfully, so refuse (CREATE TRIGGER fails).
                raise SqlLoweringError(
                    "'%' has truncated-remainder semantics on SQLite but "
                    "floored semantics in the interpreter"
                )
            if expression.op == "+":
                # Python "+" concatenates two strings; SQLite "+" coerces
                # text to 0.  Mirror the common cases: concatenate when both
                # operands are text at runtime, add numerically otherwise.
                return (
                    f"(CASE WHEN typeof({left}) = 'text' AND typeof({right}) = 'text' "
                    f"THEN {left} || {right} ELSE {left} + {right} END)"
                )
            if expression.op not in ("-", "*"):
                raise SqlLoweringError(f"arithmetic operator {expression.op!r}")
            return f"({left} {expression.op} {right})"
        if isinstance(expression, BooleanExpr):
            if expression.op == "not":
                return f"(NOT {self.scalar(expression.operands[0])})"
            if expression.op not in ("and", "or"):
                raise SqlLoweringError(f"boolean operator {expression.op!r}")
            joiner = f" {expression.op.upper()} "
            return "(" + joiner.join(self.scalar(o) for o in expression.operands) + ")"
        if isinstance(expression, IsNull):
            suffix = "IS NOT NULL" if expression.negate else "IS NULL"
            return f"({self.scalar(expression.operand)} {suffix})"
        # NodesDiffer compares two constructed-node columns for deep
        # inequality.  The JSON construction trees are canonical (the same
        # constructor over equal inputs emits identical text), so NULL-safe
        # text inequality is an exact translation.  Imported lazily: the
        # affected-nodes module is higher in the layering than this one.
        from repro.core.affected_nodes import NodesDiffer

        if isinstance(expression, NodesDiffer):
            return f"({_quoted(expression.left)} IS NOT {_quoted(expression.right)})"
        raise SqlLoweringError(f"unsupported expression {type(expression).__name__}")

    # -- node construction -------------------------------------------------------

    @staticmethod
    def _json_scalar(sql: str) -> str:
        """Wrap a scalar headed into a JSON tree so REALs survive losslessly.

        SQLite's JSON functions render reals at 15 significant digits, which
        is lossy (Python's ``repr`` is shortest-round-trip); a value whose
        runtime type is ``real`` is therefore embedded as
        ``["r", printf('%!.17g', v)]`` — 17 significant digits (the ``!``
        flag keeps them all) round-trip IEEE-754 exactly — and the finishing
        pass converts it back to a float before formatting.  Other types
        embed natively.
        """
        return (
            f"CASE WHEN typeof({sql}) = 'real' "
            f"THEN json_array('r', printf('%!.17g', {sql})) ELSE {sql} END"
        )

    def node(self, expression: Expression) -> str:
        """Lower a node-valued expression to SQL producing a JSON tree."""
        if isinstance(expression, ColumnRef):
            return _quoted(expression.name)
        if isinstance(expression, TextConstructor):
            return f"json_array('t', {self._json_scalar(self.scalar(expression.value))})"
        if isinstance(expression, ElementConstructor):
            return self._element(expression)
        raise SqlLoweringError(f"{type(expression).__name__} is not node-valued")

    def _element(self, expression: ElementConstructor) -> str:
        parts = ["'e'", _string_literal(expression.name), self._attributes(expression)]
        if expression.child_labels and len(expression.child_labels) == len(expression.children):
            labels: Iterable[str | None] = expression.child_labels
        else:
            labels = [None] * len(expression.children)
        for label, child in zip(labels, expression.children):
            child_sql, child_is_node = self.value(child)
            child_json = (
                f"json({child_sql})" if child_is_node else self._json_scalar(child_sql)
            )
            if label is None:
                # NULL children are skipped by the finishing pass, matching
                # the interpreter's constructor.
                parts.append(child_json)
            else:
                empty = f"json_array('e', {_string_literal(label)}, json_object())"
                wrapped = f"json_array('e', {_string_literal(label)}, json_object(), {child_json})"
                parts.append(
                    f"CASE WHEN {child_sql} IS NULL THEN {empty} ELSE {wrapped} END"
                )
        return f"json_array({', '.join(parts)})"

    def _attributes(self, expression: ElementConstructor) -> str:
        if not expression.attributes:
            return "json_object()"
        items: list[str] = []
        for attribute in expression.attributes:
            items.append(_string_literal(attribute.name))
            items.append(self._json_scalar(self.scalar(attribute.value)))
        return f"json_object({', '.join(items)})"

    # -- aggregates ---------------------------------------------------------------

    def aggregate(self, aggregate: AggregateSpec, order_columns: tuple[str, ...]) -> tuple[str, bool]:
        """Lower one GroupBy aggregate; returns ``(sql, is_node)``."""
        if aggregate.func == "count":
            if aggregate.argument is None:
                return "COUNT(*)", False
            if isinstance(aggregate.argument, ColumnRef):
                # COUNT(col) counts non-NULL values — works for node columns
                # too (their JSON text is non-NULL exactly when the node is).
                return f"COUNT({_quoted(aggregate.argument.name)})", False
            return f"COUNT({self.scalar(aggregate.argument)})", False
        if aggregate.func == "xmlfrag":
            if not order_columns:
                raise SqlLoweringError(
                    "aggXMLFrag without order_within_group depends on input "
                    "encounter order, which SQL aggregation cannot reproduce"
                )
            argument_sql, is_node = self.value(aggregate.argument)
            item = f"json({argument_sql})" if is_node else self._json_scalar(argument_sql)
            keys = ", ".join(
                self._json_scalar(_quoted(column)) for column in order_columns
            )
            return (
                f"json_array('f', {len(order_columns)}, "
                f"json_group_array(json_array({keys}, {item})) "
                f"FILTER (WHERE {argument_sql} IS NOT NULL))",
                True,
            )
        if aggregate.func not in ("sum", "min", "max", "avg"):
            raise SqlLoweringError(f"aggregate {aggregate.func!r}")
        return f"{aggregate.func.upper()}({self.scalar(aggregate.argument)})", False


class _SqliteRenderer:
    """Executable-dialect CTE renderer.

    Tracks, per operator, which output columns are node-valued (carry JSON
    construction trees) so expression lowering knows when to embed a column
    with ``json(...)`` versus as a plain scalar, and records which
    transition-table variants the plan reads.
    """

    def __init__(self, table: str, catalog: Mapping[str, TableSchema]) -> None:
        self.table = table
        self.catalog = catalog
        self.cte_lines: list[str] = []
        self.names: dict[int, str] = {}
        self.node_columns: dict[int, frozenset[str]] = {}
        self.required_variants: set[TableVariant] = set()
        self.counter = 0

    def name_for(self, op: Operator) -> str:
        if op.id not in self.names:
            self.counter += 1
            label = (op.label or op.kind).replace("[", "_").replace("]", "").replace("-", "_")
            label = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in label)
            self.names[op.id] = f"q{self.counter}_{label}"
        return self.names[op.id]

    def render(self, op: Operator) -> str:
        if op.id in self.names:
            return self.names[op.id]
        input_names = [self.render(input_op) for input_op in op.inputs]
        name = self.name_for(op)
        body, nodes = self._body(op, input_names)
        self.node_columns[op.id] = nodes
        self.cte_lines.append(f"{name} AS (\n{_indent(body, 2)}\n)")
        return name

    def _input_nodes(self, op: Operator) -> frozenset[str]:
        merged: set[str] = set()
        for input_op in op.inputs:
            merged |= self.node_columns[input_op.id]
        return frozenset(merged)

    # -- operators ----------------------------------------------------------------

    def _body(self, op: Operator, inputs: list[str]) -> tuple[str, frozenset[str]]:
        if isinstance(op, TableOp):
            return self._table_body(op)
        if isinstance(op, SelectOp):
            nodes = self.node_columns[op.input.id]
            expr = _SqliteExpr(nodes)
            predicate = expr.scalar(op.predicate)
            return f"SELECT *\nFROM {inputs[0]}\nWHERE {predicate}", nodes
        if isinstance(op, ProjectOp):
            return self._project_body(op, inputs)
        if isinstance(op, JoinOp):
            return self._join_body(op, inputs)
        if isinstance(op, GroupByOp):
            return self._groupby_body(op, inputs)
        if isinstance(op, UnionOp):
            return self._union_body(op, inputs)
        raise SqlLoweringError(f"operator {op.kind} has no SQLite lowering")

    def _table_body(self, op: TableOp) -> tuple[str, frozenset[str]]:
        if op.columns is None:
            schema = self.catalog.get(op.table)
            if schema is None:
                raise SqlLoweringError(f"unknown table {op.table!r}")
            op.bind_schema(schema.column_names)
        columns = ", ".join(
            f"{_quoted(op.alias)}.{_quoted(column)} AS {_quoted(op.qualified(column))}"
            for column in op.columns
        )
        variant = op.variant
        if variant is TableVariant.CURRENT:
            source = _quoted(op.table)
        elif variant in _TRANSITION_VARIANTS:
            if op.table != self.table:
                # A delta scan of a table other than the trigger table is
                # empty by definition; the translation never builds one.
                raise SqlLoweringError(
                    f"delta scan of {op.table!r} inside a trigger on {self.table!r}"
                )
            self.required_variants.add(variant)
            source = _quoted(transition_table_name(op.table, variant))
        elif variant is TableVariant.OLD:
            source = self._old_table_source(op)
        else:  # pragma: no cover - defensive (enum is closed)
            raise SqlLoweringError(f"table variant {variant!r}")
        return f"SELECT {columns}\nFROM {source} AS {_quoted(op.alias)}", frozenset()

    def _old_table_source(self, op: TableOp) -> str:
        if op.table != self.table:
            # An untouched table's pre-statement state equals its current one.
            return _quoted(op.table)
        schema = self.catalog.get(op.table)
        if schema is None or not schema.primary_key:
            raise SqlLoweringError(
                f"B_old of {op.table!r} needs a primary key to undo the delta"
            )
        self.required_variants.add(TableVariant.DELTA_INSERTED)
        self.required_variants.add(TableVariant.DELTA_DELETED)
        key = ", ".join(_quoted(column) for column in schema.primary_key)
        inserted = _quoted(transition_table_name(op.table, TableVariant.DELTA_INSERTED))
        deleted = _quoted(transition_table_name(op.table, TableVariant.DELTA_DELETED))
        return (
            f"(SELECT * FROM {_quoted(op.table)} "
            f"WHERE ({key}) NOT IN (SELECT {key} FROM {inserted})\n"
            f"   UNION ALL SELECT * FROM {deleted})"
        )

    def _project_body(self, op: ProjectOp, inputs: list[str]) -> tuple[str, frozenset[str]]:
        expr = _SqliteExpr(self.node_columns[op.input.id])
        rendered: list[str] = []
        nodes: set[str] = set()
        for name, expression in op.projections:
            sql, is_node = expr.value(expression)
            if is_node:
                nodes.add(name)
            rendered.append(f"{sql} AS {_quoted(name)}")
        columns = ",\n       ".join(rendered)
        return f"SELECT {columns}\nFROM {inputs[0]}", frozenset(nodes)

    def _groupby_body(self, op: GroupByOp, inputs: list[str]) -> tuple[str, frozenset[str]]:
        input_nodes = self.node_columns[op.input.id]
        expr = _SqliteExpr(input_nodes)
        items = [_quoted(column) for column in op.grouping]
        nodes = {column for column in op.grouping if column in input_nodes}
        for aggregate in op.aggregates:
            sql, is_node = expr.aggregate(aggregate, op.order_within_group)
            if is_node:
                nodes.add(aggregate.name)
            items.append(f"{sql} AS {_quoted(aggregate.name)}")
        body = f"SELECT {', '.join(items) if items else '1'}\nFROM {inputs[0]}"
        if op.grouping:
            body += f"\nGROUP BY {', '.join(_quoted(c) for c in op.grouping)}"
        return body, frozenset(nodes)

    def _union_body(self, op: UnionOp, inputs: list[str]) -> tuple[str, frozenset[str]]:
        keyword = "UNION ALL" if op.all else "UNION"
        selects = []
        nodes: set[str] = set()
        for input_op, input_name, mapping in zip(op.inputs, inputs, op.mappings):
            input_nodes = self.node_columns[input_op.id]
            columns = []
            for column in op.output_columns:
                if mapping[column] in input_nodes:
                    nodes.add(column)
                columns.append(f"{_quoted(mapping[column])} AS {_quoted(column)}")
            selects.append(f"SELECT {', '.join(columns)} FROM {input_name}")
        return f"\n{keyword}\n".join(selects), frozenset(nodes)

    def _join_body(self, op: JoinOp, inputs: list[str]) -> tuple[str, frozenset[str]]:
        nodes = self._input_nodes(op)
        columns_by_input = [set(input_op.output_columns) for input_op in op.inputs]

        def oriented_pairs(left: set[str], right: set[str]) -> list[tuple[str, str]]:
            """Equi pairs usable between two column sets, (left, right)-oriented.

            Mirrors the interpreter's ``_pairs_for``: a pair whose columns do
            not land on opposite sides is silently unused.
            """
            usable = []
            for a, b in op.equi_pairs:
                if a in left and b in right:
                    usable.append((a, b))
                elif b in left and a in right:
                    usable.append((b, a))
            return usable

        if op.join_kind is JoinKind.INNER:
            conditions: list[str] = []
            for i in range(len(op.inputs)):
                for j in range(i + 1, len(op.inputs)):
                    for a, b in oriented_pairs(columns_by_input[i], columns_by_input[j]):
                        conditions.append(f"{_quoted(a)} IS {_quoted(b)}")
            if op.condition is not None:
                conditions.append(_SqliteExpr(nodes).scalar(op.condition))
            condition_text = " AND ".join(dict.fromkeys(conditions)) if conditions else "1 = 1"
            return f"SELECT *\nFROM {', '.join(inputs)}\nWHERE {condition_text}", nodes

        left_columns, right_columns = columns_by_input[0], columns_by_input[1]
        pairs = oriented_pairs(left_columns, right_columns)
        if op.condition is not None:
            # The interpreter's extra-condition handling on non-inner joins
            # (filter matches, then re-filter the outer/anti result) has no
            # clean SQL counterpart; no plan builder produces it.
            raise SqlLoweringError(f"{op.join_kind.value} join with extra condition")

        if op.join_kind is JoinKind.LEFT_OUTER:
            on = " AND ".join(
                f"{inputs[0]}.{_quoted(a)} IS {inputs[1]}.{_quoted(b)}" for a, b in pairs
            ) or "1 = 1"
            return (
                f"SELECT *\nFROM {inputs[0]} LEFT JOIN {inputs[1]}\n  ON {on}",
                nodes,
            )

        # Anti join: left rows with no matching right row (NULL-safe keys,
        # like the interpreter's hash lookup).  Only the left columns flow on.
        on = " AND ".join(
            f"{inputs[0]}.{_quoted(a)} IS {inputs[1]}.{_quoted(b)}" for a, b in pairs
        ) or "1 = 1"
        body = (
            f"SELECT *\nFROM {inputs[0]}\n"
            f"WHERE NOT EXISTS (SELECT 1 FROM {inputs[1]} WHERE {on})"
        )
        return body, frozenset(nodes & columns_by_input[0])


def lower_plan_for_sqlite(
    top: Operator,
    table: str,
    catalog: Mapping[str, TableSchema],
    final_columns: Iterable[str] | None = None,
    order_by: Iterable[str] | None = None,
) -> LoweredSqlitePlan:
    """Lower a trigger plan for ``table`` into an executable SQLite statement.

    Raises :class:`SqlLoweringError` when the plan uses a construct the
    dialect cannot express; the SQLite backend then refuses
    ``CREATE TRIGGER``.
    """
    renderer = _SqliteRenderer(table, catalog)
    final_name = renderer.render(top)
    columns = tuple(final_columns or top.output_columns)
    top_nodes = renderer.node_columns[top.id]
    select = ", ".join(_quoted(column) for column in columns)
    with_clause = ",\n".join(renderer.cte_lines)
    sql = f"WITH {with_clause}\nSELECT {select}\nFROM {final_name}"
    if order_by:
        sql += f"\nORDER BY {', '.join(_quoted(column) for column in order_by)}"
    return LoweredSqlitePlan(
        table=table,
        sql=sql,
        final_columns=columns,
        node_columns=frozenset(column for column in columns if column in top_nodes),
        required_variants=frozenset(renderer.required_variants),
    )


# ---------------------------------------------------------------------------
# Whole-trigger rendering
# ---------------------------------------------------------------------------


def render_plan_sql(top: Operator, final_columns: Iterable[str] | None = None) -> str:
    """Render a plan as (readable) ``WITH ... SELECT`` text."""
    renderer = _Renderer()
    final_name = renderer.render(top)
    columns = ", ".join(_identifier(c) for c in (final_columns or top.output_columns))
    with_clause = ",\n".join(renderer.cte_lines)
    return f"WITH {with_clause}\nSELECT {columns}\nFROM {final_name}"


def render_sql_trigger(
    name: str,
    table: str,
    events: Iterable[TriggerEvent],
    top: Operator,
    final_columns: Iterable[str] | None = None,
    order_by: Iterable[str] | None = None,
    action_comment: str | None = None,
    dialect: str = "readable",
    catalog: Mapping[str, TableSchema] | None = None,
) -> str:
    """Render a full generated trigger in the style of Figure 16.

    ``dialect="readable"`` (the default) produces the DB2-flavored
    ``CREATE TRIGGER`` document.  ``dialect="sqlite"`` produces the
    *executable* statement the SQLite backend runs per firing (SQLite has no
    statement-level triggers, so the backend drives the statement itself
    after materializing the transition temp tables); ``catalog`` is required
    to resolve primary keys for the ``B_old`` reconstruction.
    """
    events = list(events)
    event_text = " OR ".join(sorted(event.value for event in events))
    if dialect == "sqlite":
        if catalog is None:
            raise SqlLoweringError("the sqlite dialect needs a catalog (primary keys)")
        lowered = lower_plan_for_sqlite(top, table, catalog, final_columns, order_by)
        lines = [
            f"-- trigger {name} (sqlite dialect)",
            f"-- fires AFTER {event_text} ON {table.upper()}; the backend materializes",
            "-- "
            + ", ".join(
                sorted(transition_table_name(table, v) for v in lowered.required_variants)
            )
            + " from the firing's net transition tables, then runs:",
        ]
        if action_comment:
            lines.append(f"-- {action_comment}")
        lines.append(lowered.sql)
        return "\n".join(lines)
    if dialect != "readable":
        raise SqlLoweringError(f"unknown SQL dialect {dialect!r}")
    body = render_plan_sql(top, final_columns)
    if order_by:
        body += f"\nORDER BY {', '.join(_identifier(c) for c in order_by)}"
    lines = [
        f"CREATE TRIGGER {name}",
        f"AFTER {event_text} ON {table.upper()}",
        "REFERENCING OLD_TABLE AS DELETED, NEW_TABLE AS INSERTED",
        "FOR EACH STATEMENT",
        "",
    ]
    if action_comment:
        lines.append(f"-- {action_comment}")
    lines.append(body)
    return "\n".join(lines)
