"""Tuple-level expressions embedded in XQGM operators.

The paper (Table 1) describes XQGM operators as producing "a set of output
tuples whose column values are XML nodes/values", with "various functions
... embedded in operators to represent the manipulation of XML nodes".
These expression classes are those embedded functions: column references,
constants, arithmetic and comparisons (with SQL NULL semantics), XML element
construction, and the aggregate specifications used by ``GroupBy`` —
including ``aggXMLFrag`` which concatenates XML values into a fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import EvaluationError, XmlError
from repro.relational.types import (
    is_truthy,
    sql_and,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_ne,
    sql_not,
    sql_or,
)
from repro.xmlmodel.node import (
    Attribute,
    DeferredElement,
    Element,
    Fragment,
    Text,
    XmlNode,
)
from repro.xmlmodel.shape import ElementShape

__all__ = [
    "Expression",
    "ColumnRef",
    "Constant",
    "Parameter",
    "Comparison",
    "BooleanExpr",
    "Arithmetic",
    "IsNull",
    "ElementConstructor",
    "AttributeSpec",
    "TextConstructor",
    "AggregateSpec",
    "evaluate_expression",
    "expression_columns",
    "compile_expr",
    "compile_predicate",
    "expression_uses_parameters",
    "SlotView",
]

Row = Mapping[str, Any]


class Expression:
    """Base class of tuple-level expressions."""

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        """Evaluate against a row (a mapping of column name → value)."""
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        """Names of all columns this expression reads."""
        return set()

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Return a copy with column references replaced per ``mapping``."""
        return self


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column of the operator's input tuple."""

    name: str

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise EvaluationError(
                f"column {self.name!r} not present in tuple {sorted(row)!r}"
            ) from None

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return mapping.get(self.name, self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Constant(Expression):
    """A literal value."""

    value: Any

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        return self.value

    # ``1``, ``1.0`` and ``True`` compare equal but are different literals
    # (they serialize differently); plan lowering merges equal subplans.
    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Constant
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A named parameter bound at evaluation time.

    Used for correlation: the grouped trigger graph of Section 5.1 evaluates
    the parameterized condition once per constants-table row, binding the
    constants as parameters.
    """

    name: str

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        if parameters is None or self.name not in parameters:
            raise EvaluationError(f"unbound parameter {self.name!r}")
        return parameters[self.name]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f":{self.name}"


_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": sql_eq,
    "!=": sql_ne,
    "<>": sql_ne,
    "<": sql_lt,
    "<=": sql_le,
    ">": sql_gt,
    ">=": sql_ge,
}


def _atomic(value: Any) -> Any:
    """Atomize an XML value for comparison/arithmetic (string-value)."""
    if isinstance(value, XmlNode):
        text = value.string_value()
        try:
            return float(text)
        except ValueError:
            return text
    return value


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison with SQL NULL semantics."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise EvaluationError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        left = _atomic(self.left.evaluate(row, parameters))
        right = _atomic(self.right.evaluate(row, parameters))
        return _COMPARATORS[self.op](left, right)

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Comparison(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BooleanExpr(Expression):
    """AND / OR / NOT with three-valued logic."""

    op: str  # 'and' | 'or' | 'not'
    operands: tuple[Expression, ...]

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        values = [operand.evaluate(row, parameters) for operand in self.operands]
        values = [v if (v is None or isinstance(v, bool)) else bool(v) for v in values]
        if self.op == "not":
            return sql_not(values[0])
        result = values[0]
        for value in values[1:]:
            result = sql_and(result, value) if self.op == "and" else sql_or(result, value)
        return result

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.referenced_columns()
        return out

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return BooleanExpr(self.op, tuple(o.substitute(mapping) for o in self.operands))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.op == "not":
            return f"(not {self.operands[0]})"
        return "(" + f" {self.op} ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic (+ - * /) over numeric values, NULL-propagating."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        left = _atomic(self.left.evaluate(row, parameters))
        right = _atomic(self.right.evaluate(row, parameters))
        if left is None or right is None:
            return None
        try:
            if self.op == "+":
                return left + right
            if self.op == "-":
                return left - right
            if self.op == "*":
                return left * right
            if self.op == "/":
                return left / right
            if self.op == "%":
                return left % right
        except TypeError as exc:
            raise EvaluationError(f"arithmetic type error: {left!r} {self.op} {right!r}") from exc
        raise EvaluationError(f"unknown arithmetic operator {self.op!r}")

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Arithmetic(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` (or ``IS NOT NULL`` with ``negate=True``)."""

    operand: Expression
    negate: bool = False

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        value = self.operand.evaluate(row, parameters)
        result = value is None
        return (not result) if self.negate else result

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return IsNull(self.operand.substitute(mapping), self.negate)


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of a constructed element: name plus value expression."""

    name: str
    value: Expression


@dataclass(frozen=True)
class ElementConstructor(Expression):
    """Construct an XML element from attribute and child expressions.

    This is the injective XML-constructor function of Appendix F.2: given the
    same inputs it always produces the same element, and distinct inputs
    produce distinct elements.
    """

    name: str
    attributes: tuple[AttributeSpec, ...] = ()
    children: tuple[Expression, ...] = ()
    child_labels: tuple[str | None, ...] = ()

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        node = Element(self.name)
        for attribute in self.attributes:
            value = attribute.value.evaluate(row, parameters)
            node.set_attribute(attribute.name, "" if value is None else value)
        labels: Sequence[str | None]
        if self.child_labels and len(self.child_labels) == len(self.children):
            labels = self.child_labels
        else:
            labels = [None] * len(self.children)
        for label, child in zip(labels, self.children):
            value = child.evaluate(row, parameters)
            if value is None:
                if label is not None:
                    node.append(Element(label))
                continue
            if label is not None:
                wrapped = Element(label)
                wrapped.append(value)
                node.append(wrapped)
            else:
                node.append(value)
        return node

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for attribute in self.attributes:
            out |= attribute.value.referenced_columns()
        for child in self.children:
            out |= child.referenced_columns()
        return out

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return ElementConstructor(
            self.name,
            tuple(AttributeSpec(a.name, a.value.substitute(mapping)) for a in self.attributes),
            tuple(child.substitute(mapping) for child in self.children),
            self.child_labels,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}>{{...}}</{self.name}>"


@dataclass(frozen=True)
class TextConstructor(Expression):
    """Construct a text node from a value expression."""

    value: Expression

    def evaluate(self, row: Row, parameters: Mapping[str, Any] | None = None) -> Any:
        value = self.value.evaluate(row, parameters)
        return Text("" if value is None else value)

    def referenced_columns(self) -> set[str]:
        return self.value.referenced_columns()

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return TextConstructor(self.value.substitute(mapping))


# ---------------------------------------------------------------------------
# Aggregates (GroupBy)
# ---------------------------------------------------------------------------

_AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg", "xmlfrag")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computed by a GroupBy operator.

    ``func`` is one of ``count``, ``sum``, ``min``, ``max``, ``avg``, or
    ``xmlfrag`` (the paper's ``aggXMLFrag``, which concatenates XML values
    into a single fragment, preserving input order).  ``argument`` may be
    ``None`` for ``count`` (count every input tuple).
    """

    name: str
    func: str
    argument: Expression | None = None

    def __post_init__(self) -> None:
        if self.func not in _AGGREGATE_FUNCTIONS:
            raise EvaluationError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.argument is None:
            raise EvaluationError(f"aggregate {self.func!r} requires an argument")

    @property
    def is_distributive(self) -> bool:
        """Whether the aggregate can be maintained from deltas (count / sum).

        The GROUPED-AGG optimization of Section 5.2 only applies to
        distributive aggregates: old values are derived from new values and
        the transition tables.
        """
        return self.func in ("count", "sum")

    def compute(self, rows: Sequence[Row], parameters: Mapping[str, Any] | None = None) -> Any:
        """Compute the aggregate over a group of input rows."""
        if self.func == "count":
            if self.argument is None:
                return len(rows)
            return sum(
                1 for row in rows if self.argument.evaluate(row, parameters) is not None
            )
        values = [self.argument.evaluate(row, parameters) for row in rows]
        if self.func == "xmlfrag":
            return Fragment([value for value in values if value is not None])
        numbers = [_atomic(value) for value in values if value is not None]
        if not numbers:
            return None
        if self.func == "sum":
            return sum(numbers)
        if self.func == "min":
            return min(numbers)
        if self.func == "max":
            return max(numbers)
        if self.func == "avg":
            return sum(numbers) / len(numbers)
        raise EvaluationError(f"unknown aggregate {self.func!r}")  # pragma: no cover

    def referenced_columns(self) -> set[str]:
        """Columns read by the aggregate argument."""
        return self.argument.referenced_columns() if self.argument else set()

    def compile(
        self, layout: Mapping[str, int]
    ) -> Callable[[Sequence[Sequence[Any]], Mapping[str, Any] | None], Any]:
        """Compile the aggregate once into ``fn(rows, parameters)`` over slot rows.

        Mirrors :meth:`compute` exactly; used by the physical GroupBy operator
        (:mod:`repro.xqgm.physical`).
        """
        if self.func == "count" and self.argument is None:
            return lambda rows, parameters: len(rows)
        argument = compile_expr(self.argument, layout)
        if self.func == "count":
            return lambda rows, parameters: sum(
                1 for row in rows if argument(row, parameters) is not None
            )
        if self.func == "xmlfrag":
            return lambda rows, parameters: Fragment(
                [
                    value
                    for value in (argument(row, parameters) for row in rows)
                    if value is not None
                ]
            )
        func = self.func

        def numeric(rows: Sequence[Sequence[Any]], parameters: Mapping[str, Any] | None) -> Any:
            numbers = [
                _atomic(value)
                for value in (argument(row, parameters) for row in rows)
                if value is not None
            ]
            if not numbers:
                return None
            if func == "sum":
                return sum(numbers)
            if func == "min":
                return min(numbers)
            if func == "max":
                return max(numbers)
            return sum(numbers) / len(numbers)  # avg (validated in __post_init__)

        return numeric


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def evaluate_expression(
    expression: Expression, row: Row, parameters: Mapping[str, Any] | None = None
) -> Any:
    """Evaluate an expression against a row."""
    return expression.evaluate(row, parameters)


def expression_columns(expressions: Iterable[Expression]) -> set[str]:
    """Union of the columns referenced by a collection of expressions."""
    out: set[str] = set()
    for expression in expressions:
        out |= expression.referenced_columns()
    return out


def predicate_holds(
    expression: Expression, row: Row, parameters: Mapping[str, Any] | None = None
) -> bool:
    """WHERE semantics: NULL/unknown counts as false."""
    value = expression.evaluate(row, parameters)
    if isinstance(value, bool) or value is None:
        return is_truthy(value)
    return bool(value)


# ---------------------------------------------------------------------------
# One-time expression compilation (slot rows)
# ---------------------------------------------------------------------------
#
# The physical execution engine (:mod:`repro.xqgm.physical`) represents rows
# as plain tuples with an integer *slot* per column instead of dictionaries.
# ``compile_expr`` lowers an expression tree once into a nest of Python
# closures reading those slots directly, so per-row evaluation costs a few
# function calls instead of a full tree walk with dictionary lookups.  The
# compiled form reproduces the interpreted semantics exactly (SQL NULL
# handling, atomization, error messages) — the interpreter stays the oracle.

#: A compiled expression: ``fn(values, parameters) -> value`` over a slot row.
CompiledExpr = Callable[[Sequence[Any], Mapping[str, Any] | None], Any]


class SlotView(Mapping):  # type: ignore[type-arg]
    """Read-only dict view of a slot row (``column name -> value``).

    Used as the fallback bridge for expression types without a dedicated
    compiled form: their interpreted ``evaluate`` runs against this view
    without materializing a dictionary per row.
    """

    __slots__ = ("_layout", "_values")

    def __init__(self, layout: Mapping[str, int], values: Sequence[Any]) -> None:
        self._layout = layout
        self._values = values

    def __getitem__(self, name: str) -> Any:
        return self._values[self._layout[name]]

    def get(self, name: str, default: Any = None) -> Any:
        index = self._layout.get(name)
        return default if index is None else self._values[index]

    def __iter__(self):
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._layout)


def _missing_column(name: str) -> CompiledExpr:
    def raise_missing(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
        raise EvaluationError(f"column {name!r} not present in tuple")

    return raise_missing


_ARITHMETIC_FUNCTIONS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def _normalize_boolean(value: Any) -> Any:
    return value if (value is None or isinstance(value, bool)) else bool(value)


def compile_expr(expression: Expression, layout: Mapping[str, int]) -> CompiledExpr:
    """Compile ``expression`` once into a closure over slot rows.

    ``layout`` maps column names to slot indexes of the input tuples.  The
    returned callable is invoked as ``fn(values, parameters)`` per row.
    Column references missing from the layout compile to a closure raising
    :class:`~repro.errors.EvaluationError` *at call time*, matching the
    interpreter (which only fails when the expression is actually evaluated).
    Expression types without a dedicated compiled form (e.g. the pushdown
    stage's ``NodesDiffer``) fall back to their interpreted ``evaluate``
    over a :class:`SlotView`, or may supply a ``compile_slots(layout)`` hook.
    """
    compile_slots = getattr(expression, "compile_slots", None)
    if compile_slots is not None:
        return compile_slots(layout)

    if isinstance(expression, ColumnRef):
        index = layout.get(expression.name)
        if index is None:
            return _missing_column(expression.name)
        return lambda values, parameters, _i=index: values[_i]

    if isinstance(expression, Constant):
        value = expression.value
        return lambda values, parameters, _v=value: _v

    if isinstance(expression, Parameter):
        name = expression.name

        def parameter(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
            if parameters is None or name not in parameters:
                raise EvaluationError(f"unbound parameter {name!r}")
            return parameters[name]

        return parameter

    if isinstance(expression, Comparison):
        comparator = _COMPARATORS[expression.op]
        left = compile_expr(expression.left, layout)
        right = compile_expr(expression.right, layout)
        return lambda values, parameters: comparator(
            _atomic(left(values, parameters)), _atomic(right(values, parameters))
        )

    if isinstance(expression, BooleanExpr):
        operands = [compile_expr(operand, layout) for operand in expression.operands]
        if expression.op == "not":
            first = operands[0]
            return lambda values, parameters: sql_not(
                _normalize_boolean(first(values, parameters))
            )
        combine = sql_and if expression.op == "and" else sql_or

        def boolean(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
            result = _normalize_boolean(operands[0](values, parameters))
            for operand in operands[1:]:
                result = combine(result, _normalize_boolean(operand(values, parameters)))
            return result

        return boolean

    if isinstance(expression, Arithmetic):
        function = _ARITHMETIC_FUNCTIONS.get(expression.op)
        left = compile_expr(expression.left, layout)
        right = compile_expr(expression.right, layout)
        op = expression.op
        if function is None:
            def unknown(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
                raise EvaluationError(f"unknown arithmetic operator {op!r}")

            return unknown

        def arithmetic(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
            a = _atomic(left(values, parameters))
            b = _atomic(right(values, parameters))
            if a is None or b is None:
                return None
            try:
                return function(a, b)
            except TypeError as exc:
                raise EvaluationError(
                    f"arithmetic type error: {a!r} {op} {b!r}"
                ) from exc

        return arithmetic

    if isinstance(expression, IsNull):
        operand = compile_expr(expression.operand, layout)
        if expression.negate:
            return lambda values, parameters: operand(values, parameters) is not None
        return lambda values, parameters: operand(values, parameters) is None

    if isinstance(expression, TextConstructor):
        value = compile_expr(expression.value, layout)

        def text(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
            result = value(values, parameters)
            return Text("" if result is None else result)

        return text

    if isinstance(expression, ElementConstructor):
        return _compile_element(expression, layout)

    # Fallback: interpreted evaluation over a slot view (custom expressions).
    return lambda values, parameters: expression.evaluate(
        SlotView(layout, values), parameters
    )


def _compile_element(expression: ElementConstructor, layout: Mapping[str, int]) -> CompiledExpr:
    """The element constructor with its shape fixed at lowering time.

    Each call evaluates the attribute and child slots and returns a
    :class:`~repro.xmlmodel.node.DeferredElement` over them: no attribute
    or child list, no wrapper element and no text node is built until
    something reads the element's structure (:class:`ElementShape`).  An
    attribute value in a child position raises
    :class:`~repro.errors.XmlError` at the call, as ``as_node`` does in
    ``evaluate``; so does every call of a constructor with an empty element
    name, label or attribute name.
    """
    name = expression.name
    if expression.child_labels and len(expression.child_labels) == len(expression.children):
        labels: Sequence[str | None] = expression.child_labels
    else:
        labels = [None] * len(expression.children)
    attribute_names = [attribute.name for attribute in expression.attributes]
    if not name or "" in labels or "" in attribute_names:
        def malformed(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> Any:
            raise XmlError(f"element {name!r}: empty element, label or attribute name")

        return malformed
    shape = ElementShape(name, attribute_names, labels)
    parts = [attribute.value for attribute in expression.attributes]
    parts += expression.children
    children = range(len(attribute_names), len(parts))

    def deferred(slot_values: Sequence[Any]) -> DeferredElement:
        for index in children:
            if isinstance(slot_values[index], Attribute):
                raise XmlError("attributes cannot appear as children")
        return DeferredElement(shape, slot_values)

    slots = [compile_expr(part, layout) for part in parts]
    return lambda values, parameters: deferred([slot(values, parameters) for slot in slots])


def compile_predicate(
    expression: Expression, layout: Mapping[str, int]
) -> Callable[[Sequence[Any], Mapping[str, Any] | None], bool]:
    """Compile a predicate with WHERE semantics (NULL/unknown counts as false)."""
    compiled = compile_expr(expression, layout)

    def holds(values: Sequence[Any], parameters: Mapping[str, Any] | None) -> bool:
        value = compiled(values, parameters)
        if isinstance(value, bool) or value is None:
            return is_truthy(value)
        return bool(value)

    return holds


def expression_uses_parameters(expression: Expression) -> bool:
    """Whether evaluating ``expression`` may read the parameter bindings.

    Decides whether a compiled subplan is volatile: parameter-dependent
    subplans are never shared between the trigger groups fired by one
    statement.  Expression types defined outside this
    module answer through a ``uses_parameters()`` method (see
    :class:`repro.core.affected_nodes.NodesDiffer`); unknown types without
    one are conservatively assumed to use parameters (they cannot be
    inspected).
    """
    if isinstance(expression, Parameter):
        return True
    hook = getattr(expression, "uses_parameters", None)
    if hook is not None:
        return bool(hook())
    if isinstance(expression, (ColumnRef, Constant)):
        return False
    if isinstance(expression, (Comparison, Arithmetic)):
        return expression_uses_parameters(expression.left) or expression_uses_parameters(
            expression.right
        )
    if isinstance(expression, BooleanExpr):
        return any(expression_uses_parameters(operand) for operand in expression.operands)
    if isinstance(expression, IsNull):
        return expression_uses_parameters(expression.operand)
    if isinstance(expression, TextConstructor):
        return expression_uses_parameters(expression.value)
    if isinstance(expression, ElementConstructor):
        return any(
            expression_uses_parameters(attribute.value) for attribute in expression.attributes
        ) or any(expression_uses_parameters(child) for child in expression.children)
    return True
