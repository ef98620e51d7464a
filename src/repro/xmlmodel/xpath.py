"""XPath-subset parser and evaluator over materialized XML nodes.

Trigger ``Condition`` expressions and ``Action`` parameters are XQuery /
XPath expressions over the ``OLD_NODE`` and ``NEW_NODE`` variables
(Section 2.2), for example::

    OLD_NODE/@name = 'CRT 15'
    count(NEW_NODE/vendor[./price < 100]) >= 2

By the time a condition is evaluated, the affected-node graph has already
produced the (OLD_NODE, NEW_NODE) XML values, so conditions and action
parameters are evaluated directly over those nodes with this engine.  The
supported axes mirror Appendix D of the paper: ``child``, ``descendant``,
``descendant-or-self``, ``attribute``, and ``self`` (no parent or sibling
axes).

The same expression parser doubles as the shape under trigger *grouping*
(Section 5.1): :func:`split_constants` extracts literal constants from a
condition and replaces them with placeholder parameters, so structurally
similar conditions can share one constants table.  :func:`split_literals`
finds the same constants without parsing, from the tokenizer's own regex,
so bulk registration parses one text per literal-free skeleton.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import XPathError
from repro.xmlmodel.node import Attribute, Document, Element, Fragment, XmlNode

__all__ = [
    "XPath",
    "parse_xpath",
    "evaluate_xpath",
    "split_constants",
    "analyze_expression",
    "split_literals",
    "XPathExpr",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class XPathExpr:
    """Base class of XPath AST nodes."""

    def children(self) -> Sequence["XPathExpr"]:
        """Direct sub-expressions (used by constant splitting)."""
        return ()


@dataclass
class Literal(XPathExpr):
    """A string or numeric literal."""

    value: Any


@dataclass
class Parameter(XPathExpr):
    """A placeholder for a grouped constant (Section 5.1 constants table)."""

    index: int


@dataclass
class VariableRef(XPathExpr):
    """``$name`` or a bare OLD_NODE / NEW_NODE reference."""

    name: str


@dataclass
class ContextRef(XPathExpr):
    """``.`` — the context node."""


@dataclass
class Step(XPathExpr):
    """One location step: axis, node test, and predicates."""

    axis: str  # 'child' | 'descendant' | 'descendant-or-self' | 'attribute' | 'self'
    test: str  # element name, attribute name, or '*'
    predicates: tuple["XPathExpr", ...] = ()

    def children(self) -> Sequence[XPathExpr]:
        return self.predicates


@dataclass
class Path(XPathExpr):
    """A path: a start expression followed by location steps."""

    start: XPathExpr
    steps: tuple[Step, ...]

    def children(self) -> Sequence[XPathExpr]:
        return (self.start, *self.steps)


@dataclass
class FunctionCall(XPathExpr):
    """A call to one of the supported functions."""

    name: str
    args: tuple[XPathExpr, ...]

    def children(self) -> Sequence[XPathExpr]:
        return self.args


@dataclass
class Binary(XPathExpr):
    """Binary operator: comparison, arithmetic, and / or."""

    op: str
    left: XPathExpr
    right: XPathExpr

    def children(self) -> Sequence[XPathExpr]:
        return (self.left, self.right)


@dataclass
class Unary(XPathExpr):
    """Unary minus."""

    op: str
    operand: XPathExpr

    def children(self) -> Sequence[XPathExpr]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_AXES = {"child", "descendant", "descendant-or-self", "attribute", "self"}
_FUNCTIONS = {
    "count", "not", "exists", "empty", "string", "number", "sum", "min", "max",
    "avg", "contains", "starts-with", "concat", "true", "false", "boolean",
}

# The one lexical grammar: :func:`_tokenize` and :func:`split_literals` both
# scan with it, so the parser's tokens and the grouping skeleton cannot drift
# apart.  Alternatives are tried in order: whitespace, a quoted string, a
# quote with no closing partner, a number (a digit, or '.' before a digit,
# then digits and dots), a symbol (two-character ones first), a name (a
# letter or '_', then letters, digits, '_' and '-'), anything else.  ``\w``
# is ``str.isalnum()`` or '_' and ``\d`` is ``str.isdecimal()``; a name's
# first character is checked with ``str.isalpha()`` by the tokenizer.
_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t\r\n]+)
      | (?P<string>'[^']*'|"[^"]*")
      | (?P<unterminated>['"])
      | (?P<number>(?:\d|\.(?=\d))[\d.]*)
      | (?P<symbol>//|!=|<=|>=|::|[()\[\]/@$,=<>+*.-])
      | (?P<name>[^\W\d][\w-]*)
      | (?P<error>.)""",
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Token:
    kind: str  # 'symbol' | 'name' | 'string' | 'number'
    value: Any
    pos: int


def _number(raw: str) -> int | float:
    """A number token's value: ``float`` if it has a '.', else ``int``."""
    return float(raw) if "." in raw else int(raw)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "space":
            continue
        raw = match.group()
        pos = match.start()
        if kind == "string":
            tokens.append(_Token("string", raw[1:-1], pos))
        elif kind == "number":
            try:
                value = _number(raw)
            except ValueError:
                raise XPathError(f"invalid number {raw!r} at offset {pos}") from None
            tokens.append(_Token("number", value, pos))
        elif kind == "symbol":
            tokens.append(_Token("symbol", raw, pos))
        elif kind == "name" and (raw[0].isalpha() or raw[0] == "_"):
            tokens.append(_Token("name", raw, pos))
        elif kind == "unterminated":
            raise XPathError(f"unterminated string literal at offset {pos}")
        else:
            raise XPathError(f"unexpected character {raw[0]!r} at offset {pos}")
    return tokens


def split_literals(text: str) -> tuple[tuple[str, ...], tuple[Any, ...]] | None:
    """Split an expression into its literal-free *skeleton* and its literals.

    The skeleton is ``(segment, kind, segment, kind, ..., segment)``: the
    source text between literals, verbatim, with each literal's token kind
    (``'string'`` or ``'number'``) in its place.  It is a tuple, not a string
    with placeholders spliced in, so no text can collide with another's
    skeleton.  Two texts with equal skeletons tokenize alike but for their
    literal values, so they parse alike: same parameterized AST and shape
    (:func:`analyze_expression`), constants in source order: the grammar
    takes every literal as a value.  No parse happens here.  Returns ``None``
    when a number literal does not convert; parsing the text reports that
    error.
    """
    skeleton: list[str] = []
    constants: list[Any] = []
    start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "string":
            constants.append(match.group()[1:-1])
        elif kind == "number":
            try:
                constants.append(_number(match.group()))
            except ValueError:
                return None
        else:
            continue
        skeleton += (text[start : match.start()], kind)
        start = match.end()
    skeleton.append(text[start:])
    return tuple(skeleton), tuple(constants)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.pos = 0

    def _peek(self, offset: int = 0) -> _Token | None:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise XPathError(f"unexpected end of expression: {self.source!r}")
        self.pos += 1
        return token

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._peek()
        if token and token.kind == "symbol" and token.value == symbol:
            self.pos += 1
            return True
        return False

    def _accept_name(self, name: str) -> bool:
        token = self._peek()
        if token and token.kind == "name" and token.value == name:
            self.pos += 1
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            token = self._peek()
            raise XPathError(
                f"expected {symbol!r} at offset "
                f"{token.pos if token else len(self.source)} in {self.source!r}"
            )

    # -- grammar --------------------------------------------------------------

    def parse(self) -> XPathExpr:
        expr = self.parse_or()
        if self._peek() is not None:
            token = self._peek()
            raise XPathError(
                f"unexpected token {token.value!r} at offset {token.pos} in {self.source!r}"
            )
        return expr

    def parse_or(self) -> XPathExpr:
        left = self.parse_and()
        while self._accept_name("or"):
            right = self.parse_and()
            left = Binary("or", left, right)
        return left

    def parse_and(self) -> XPathExpr:
        left = self.parse_comparison()
        while self._accept_name("and"):
            right = self.parse_comparison()
            left = Binary("and", left, right)
        return left

    def parse_comparison(self) -> XPathExpr:
        left = self.parse_additive()
        token = self._peek()
        if token and token.kind == "symbol" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self.pos += 1
            right = self.parse_additive()
            return Binary(token.value, left, right)
        # XQuery general comparison keywords (eq, ne, lt, le, gt, ge)
        if token and token.kind == "name" and token.value in ("eq", "ne", "lt", "le", "gt", "ge"):
            mapping = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
            self.pos += 1
            right = self.parse_additive()
            return Binary(mapping[token.value], left, right)
        return left

    def parse_additive(self) -> XPathExpr:
        left = self.parse_multiplicative()
        while True:
            token = self._peek()
            if token and token.kind == "symbol" and token.value in ("+", "-"):
                self.pos += 1
                right = self.parse_multiplicative()
                left = Binary(token.value, left, right)
            else:
                return left

    def parse_multiplicative(self) -> XPathExpr:
        left = self.parse_unary()
        while True:
            token = self._peek()
            if token and token.kind == "symbol" and token.value == "*":
                self.pos += 1
                left = Binary("*", left, self.parse_unary())
            elif token and token.kind == "name" and token.value in ("div", "mod"):
                self.pos += 1
                left = Binary(token.value, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> XPathExpr:
        if self._accept_symbol("-"):
            return Unary("-", self.parse_unary())
        return self.parse_path()

    def parse_path(self) -> XPathExpr:
        start: XPathExpr
        token = self._peek()
        if token is None:
            raise XPathError(f"unexpected end of expression: {self.source!r}")

        if token.kind == "symbol" and token.value == ".":
            # '.' — the context node itself (possibly followed by steps).
            self.pos += 1
            start = ContextRef()
        elif token.kind == "symbol" and token.value in ("/", "//", "@"):
            # Relative/rooted path starting from the context node.
            start = ContextRef()
        else:
            start = self.parse_primary()

        steps: list[Step] = []
        while True:
            token = self._peek()
            if token is None or token.kind != "symbol":
                break
            if token.value == "/":
                self.pos += 1
                steps.append(self.parse_step(descendant=False))
            elif token.value == "//":
                self.pos += 1
                steps.append(self.parse_step(descendant=True))
            elif token.value == "@" and isinstance(start, ContextRef) and not steps:
                # A bare '@attr' path (relative attribute access).
                self.pos += 1
                steps.append(self.parse_attribute_step())
            elif token.value == "[" and (steps or isinstance(start, (VariableRef, ContextRef))):
                # Predicate applied directly to the start expression.
                self.pos += 1
                predicate = self.parse_or()
                self._expect_symbol("]")
                if steps:
                    last = steps[-1]
                    steps[-1] = Step(last.axis, last.test, last.predicates + (predicate,))
                else:
                    steps.append(Step("self", "*", (predicate,)))
            else:
                break
        if not steps:
            return start
        return Path(start, tuple(steps))

    def parse_step(self, descendant: bool) -> Step:
        if self._accept_symbol("@"):
            step = self.parse_attribute_step()
            if descendant:
                raise XPathError("'//@attr' is not supported")
            return step
        token = self._peek()
        if token and token.kind == "symbol" and token.value == "*":
            self.pos += 1
            axis, test = ("descendant" if descendant else "child"), "*"
        elif token and token.kind == "symbol" and token.value == ".":
            self.pos += 1
            axis, test = "self", "*"
        elif token and token.kind == "name":
            name = self._next().value
            if self._accept_symbol("::"):
                axis = name
                if axis not in _AXES:
                    raise XPathError(f"unsupported axis {axis!r} (Appendix D restriction)")
                if self._accept_symbol("@"):
                    axis, test = "attribute", self.parse_attribute_step().test
                else:
                    token2 = self._next()
                    if token2.kind == "symbol" and token2.value == "*":
                        test = "*"
                    elif token2.kind == "name":
                        test = token2.value
                    else:
                        raise XPathError(f"invalid node test {token2.value!r}")
                if descendant:
                    raise XPathError("'//axis::' combination is not supported")
            else:
                axis, test = ("descendant" if descendant else "child"), name
        else:
            raise XPathError(f"expected a step at offset "
                             f"{token.pos if token else len(self.source)} in {self.source!r}")
        predicates: list[XPathExpr] = []
        while self._accept_symbol("["):
            predicates.append(self.parse_or())
            self._expect_symbol("]")
        return Step(axis, test, tuple(predicates))

    def parse_attribute_step(self) -> Step:
        token = self._next()
        if token.kind == "symbol" and token.value == "*":
            return Step("attribute", "*")
        if token.kind != "name":
            raise XPathError(f"expected an attribute name, got {token.value!r}")
        return Step("attribute", token.value)

    def parse_primary(self) -> XPathExpr:
        token = self._next()
        if token.kind == "string":
            return Literal(token.value)
        if token.kind == "number":
            return Literal(token.value)
        if token.kind == "symbol" and token.value == "(":
            inner = self.parse_or()
            self._expect_symbol(")")
            return inner
        if token.kind == "symbol" and token.value == "$":
            name_token = self._next()
            if name_token.kind != "name":
                raise XPathError("expected a variable name after '$'")
            return VariableRef(name_token.value)
        if token.kind == "name":
            name = token.value
            nxt = self._peek()
            if nxt and nxt.kind == "symbol" and nxt.value == "(":
                self.pos += 1
                args: list[XPathExpr] = []
                if not self._accept_symbol(")"):
                    args.append(self.parse_or())
                    while self._accept_symbol(","):
                        args.append(self.parse_or())
                    self._expect_symbol(")")
                lowered = name.lower()
                if lowered not in _FUNCTIONS:
                    raise XPathError(f"unsupported function {name!r}")
                return FunctionCall(lowered, tuple(args))
            # A bare name is a child step relative to the context node,
            # except for the conventional OLD_NODE / NEW_NODE variables.
            if name in ("OLD_NODE", "NEW_NODE") or name.isupper():
                return VariableRef(name)
            return Path(ContextRef(), (Step("child", name),))
        raise XPathError(f"unexpected token {token.value!r} at offset {token.pos}")


def parse_xpath(text: str) -> XPathExpr:
    """Parse an XPath/condition expression into an AST."""
    if not text or not text.strip():
        raise XPathError("empty expression")
    return _Parser(_tokenize(text), text).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _as_nodeset(value: Any) -> list[Any]:
    if value is None:
        return []
    if isinstance(value, list):
        return value
    if isinstance(value, Fragment):
        return list(value.items)
    return [value]


def _string_of(item: Any) -> str:
    if item is None:
        return ""
    if isinstance(item, Attribute):
        return item.value
    if isinstance(item, XmlNode):
        return item.string_value()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float) and item.is_integer():
        return f"{item:.1f}"
    return str(item)


def _number_of(item: Any) -> float | None:
    try:
        return float(_string_of(item))
    except (TypeError, ValueError):
        return None


def _to_boolean(value: Any) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, Fragment):
        return bool(value.items)
    return value is not None


def _atomize(value: Any) -> list[Any]:
    """Flatten a value into a list of atomic items for comparison."""
    if isinstance(value, list):
        return value
    return [value]


def _compare_atoms(op: str, a: Any, b: Any) -> bool:
    sa, sb = _string_of(a), _string_of(b)
    na, nb = _number_of(a), _number_of(b)
    if na is not None and nb is not None:
        left, right = na, nb
    else:
        left, right = sa, sb
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise XPathError(f"unknown comparison operator {op!r}")  # pragma: no cover


class XPath:
    """A compiled XPath/condition expression."""

    def __init__(self, expression: str | XPathExpr) -> None:
        if isinstance(expression, str):
            self.source: str | None = expression
            self.ast = parse_xpath(expression)
        else:
            self.source = None
            self.ast = expression

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        variables: dict[str, Any] | None = None,
        context: Any = None,
        parameters: Sequence[Any] = (),
    ) -> Any:
        """Evaluate and return the raw result (node list, string, number, bool)."""
        return _evaluate(self.ast, variables or {}, context, list(parameters))

    def as_boolean(
        self,
        variables: dict[str, Any] | None = None,
        context: Any = None,
        parameters: Sequence[Any] = (),
    ) -> bool:
        """Evaluate with boolean (effective boolean value) semantics."""
        return _to_boolean(self.evaluate(variables, context, parameters))

    def nodes(
        self,
        variables: dict[str, Any] | None = None,
        context: Any = None,
        parameters: Sequence[Any] = (),
    ) -> list[Any]:
        """Evaluate and return the result as a node list."""
        return _as_nodeset(self.evaluate(variables, context, parameters))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"XPath({self.source or self.ast!r})"


def evaluate_xpath(
    expression: str | XPathExpr | XPath,
    variables: dict[str, Any] | None = None,
    context: Any = None,
    parameters: Sequence[Any] = (),
) -> Any:
    """Convenience wrapper: compile (if needed) and evaluate an expression."""
    xpath = expression if isinstance(expression, XPath) else XPath(expression)
    return xpath.evaluate(variables, context, parameters)


def _evaluate(expr: XPathExpr, variables: dict[str, Any], context: Any, params: list[Any]) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Parameter):
        try:
            return params[expr.index]
        except IndexError:
            raise XPathError(
                f"no value bound for grouped constant #{expr.index}"
            ) from None
    if isinstance(expr, VariableRef):
        if expr.name not in variables:
            raise XPathError(f"unbound variable ${expr.name}")
        return variables[expr.name]
    if isinstance(expr, ContextRef):
        return context
    if isinstance(expr, Path):
        start = _evaluate(expr.start, variables, context, params)
        items = _as_nodeset(start)
        for step in expr.steps:
            items = _apply_step(step, items, variables, params)
        return items
    if isinstance(expr, FunctionCall):
        return _call_function(expr, variables, context, params)
    if isinstance(expr, Unary):
        value = _evaluate(expr.operand, variables, context, params)
        number = _number_of(value if not isinstance(value, list) else (value[0] if value else None))
        if number is None:
            raise XPathError("unary minus applied to a non-numeric value")
        return -number
    if isinstance(expr, Binary):
        return _evaluate_binary(expr, variables, context, params)
    raise XPathError(f"cannot evaluate {type(expr).__name__}")  # pragma: no cover


def _apply_step(step: Step, items: list[Any], variables: dict[str, Any], params: list[Any]) -> list[Any]:
    output: list[Any] = []
    for item in items:
        output.extend(_step_from(step, item))
    for predicate in step.predicates:
        output = [
            item
            for item in output
            if _to_boolean(_evaluate(predicate, variables, item, params))
        ]
    return output


def _step_from(step: Step, item: Any) -> list[Any]:
    if isinstance(item, Document):
        item = item.root
    if isinstance(item, Fragment):
        result: list[Any] = []
        for sub in item.items:
            result.extend(_step_from(step, sub))
        return result
    if not isinstance(item, Element):
        return []
    if step.axis == "self":
        if step.test in ("*", item.name):
            return [item]
        return []
    if step.axis == "attribute":
        if step.test == "*":
            return list(item.attributes)
        value = item.attribute(step.test)
        return [Attribute(step.test, value)] if value is not None else []
    if step.axis == "child":
        return [
            child
            for child in item.children
            if isinstance(child, Element) and (step.test == "*" or child.name == step.test)
        ]
    if step.axis in ("descendant", "descendant-or-self"):
        matches = []
        candidates = item.iter_descendants()
        for node in candidates:
            if node is item and step.axis == "descendant":
                continue
            if isinstance(node, Element) and (step.test == "*" or node.name == step.test):
                matches.append(node)
        return matches
    raise XPathError(f"unsupported axis {step.axis!r}")  # pragma: no cover


def _call_function(expr: FunctionCall, variables: dict[str, Any], context: Any, params: list[Any]) -> Any:
    name = expr.name
    args = [
        _evaluate(arg, variables, context, params) for arg in expr.args
    ]
    if name == "count":
        _require_args(name, args, 1)
        return float(len(_as_nodeset(args[0])))
    if name == "exists":
        _require_args(name, args, 1)
        return bool(_as_nodeset(args[0]))
    if name == "empty":
        _require_args(name, args, 1)
        return not _as_nodeset(args[0])
    if name == "not":
        _require_args(name, args, 1)
        return not _to_boolean(args[0])
    if name == "boolean":
        _require_args(name, args, 1)
        return _to_boolean(args[0])
    if name == "true":
        return True
    if name == "false":
        return False
    if name == "string":
        _require_args(name, args, 1)
        items = _as_nodeset(args[0])
        return _string_of(items[0]) if items else ""
    if name == "number":
        _require_args(name, args, 1)
        items = _as_nodeset(args[0])
        value = _number_of(items[0]) if items else None
        return float("nan") if value is None else value
    if name in ("sum", "min", "max", "avg"):
        _require_args(name, args, 1)
        numbers = [
            number
            for number in (_number_of(item) for item in _as_nodeset(args[0]))
            if number is not None
        ]
        if not numbers:
            return 0.0 if name == "sum" else None
        if name == "sum":
            return float(sum(numbers))
        if name == "min":
            return float(min(numbers))
        if name == "max":
            return float(max(numbers))
        return float(sum(numbers) / len(numbers))
    if name == "contains":
        _require_args(name, args, 2)
        return _string_of(_first(args[0])) .find(_string_of(_first(args[1]))) != -1
    if name == "starts-with":
        _require_args(name, args, 2)
        return _string_of(_first(args[0])).startswith(_string_of(_first(args[1])))
    if name == "concat":
        return "".join(_string_of(_first(arg)) for arg in args)
    raise XPathError(f"unsupported function {name!r}")  # pragma: no cover


def _first(value: Any) -> Any:
    items = _as_nodeset(value)
    return items[0] if items else None


def _require_args(name: str, args: list[Any], count: int) -> None:
    if len(args) != count:
        raise XPathError(f"{name}() expects {count} argument(s), got {len(args)}")


def _evaluate_binary(expr: Binary, variables: dict[str, Any], context: Any, params: list[Any]) -> Any:
    if expr.op == "and":
        return _to_boolean(_evaluate(expr.left, variables, context, params)) and _to_boolean(
            _evaluate(expr.right, variables, context, params)
        )
    if expr.op == "or":
        return _to_boolean(_evaluate(expr.left, variables, context, params)) or _to_boolean(
            _evaluate(expr.right, variables, context, params)
        )
    left = _evaluate(expr.left, variables, context, params)
    right = _evaluate(expr.right, variables, context, params)
    if expr.op in ("=", "!=", "<", "<=", ">", ">="):
        # Existential (node-set) comparison semantics.
        for a in _atomize(left):
            for b in _atomize(right):
                if _compare_atoms(expr.op, a, b):
                    return True
        return False
    # Arithmetic
    la = _number_of(_first(left))
    rb = _number_of(_first(right))
    if la is None or rb is None:
        raise XPathError(f"arithmetic on non-numeric operands: {expr.op}")
    if expr.op == "+":
        return la + rb
    if expr.op == "-":
        return la - rb
    if expr.op == "*":
        return la * rb
    if expr.op == "div":
        return la / rb
    if expr.op == "mod":
        return la % rb
    raise XPathError(f"unknown operator {expr.op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Constant splitting for trigger grouping (Section 5.1)
# ---------------------------------------------------------------------------


def split_constants(expression: str | XPathExpr) -> tuple[XPathExpr, list[Any]]:
    """Replace literal constants in an expression with :class:`Parameter` slots.

    Returns the parameterized AST plus the list of extracted constants, in
    order.  Two conditions that produce identical parameterized ASTs are
    *structurally similar* in the sense of Section 5.1 and can share a single
    grouped SQL trigger; their constants become rows of the constants table.
    """
    ast = parse_xpath(expression) if isinstance(expression, str) else expression
    constants: list[Any] = []

    def rewrite(node: XPathExpr) -> XPathExpr:
        if isinstance(node, Literal):
            constants.append(node.value)
            return Parameter(len(constants) - 1)
        if isinstance(node, Binary):
            return Binary(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, Unary):
            return Unary(node.op, rewrite(node.operand))
        if isinstance(node, FunctionCall):
            return FunctionCall(node.name, tuple(rewrite(arg) for arg in node.args))
        if isinstance(node, Path):
            return Path(rewrite(node.start), tuple(rewrite(step) for step in node.steps))
        if isinstance(node, Step):
            return Step(node.axis, node.test, tuple(rewrite(p) for p in node.predicates))
        return node

    return rewrite(ast), constants


def expression_shape(expression: str | XPathExpr) -> str:
    """A canonical string for the parameterized form of an expression.

    Used as the grouping key for structurally similar triggers.
    """
    parameterized, _ = split_constants(expression)
    return _shape(parameterized)


def analyze_expression(expression: str | XPathExpr) -> tuple[XPathExpr, list[Any], str]:
    """Parameterized AST, extracted constants, and canonical shape — one parse.

    Equivalent to ``split_constants`` followed by ``expression_shape`` but
    parses the source text only once.  Trigger registration calls this once
    per expression in ``create_trigger`` and once per distinct skeleton
    (:func:`split_literals`) per bulk registration call; the other texts of
    a skeleton reuse the result with their own constants.
    """
    parameterized, constants = split_constants(expression)
    return parameterized, constants, _shape(parameterized)


def _shape(node: XPathExpr) -> str:
    if isinstance(node, Parameter):
        return "?"
    if isinstance(node, Literal):  # pragma: no cover - literals already replaced
        return repr(node.value)
    if isinstance(node, VariableRef):
        return f"${node.name}"
    if isinstance(node, ContextRef):
        return "."
    if isinstance(node, Step):
        preds = "".join(f"[{_shape(p)}]" for p in node.predicates)
        return f"{node.axis}::{node.test}{preds}"
    if isinstance(node, Path):
        return "/".join([_shape(node.start)] + [_shape(step) for step in node.steps])
    if isinstance(node, FunctionCall):
        return f"{node.name}({','.join(_shape(a) for a in node.args)})"
    if isinstance(node, Binary):
        return f"({_shape(node.left)}{node.op}{_shape(node.right)})"
    if isinstance(node, Unary):
        return f"({node.op}{_shape(node.operand)})"
    raise XPathError(f"cannot canonicalize {type(node).__name__}")  # pragma: no cover
