"""XML trigger definitions (Section 2.2 of the paper).

A trigger has a name, an event (INSERT / UPDATE / DELETE on view nodes), a
monitored *Path* into a view, an optional Boolean *Condition* over the
``OLD_NODE`` / ``NEW_NODE`` variables, and an *Action*: a call to an external
function whose parameters are XQuery expressions over the same variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import TriggerSyntaxError
from repro.relational.triggers import TriggerEvent
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.xpath import XPath, analyze_expression, split_literals

__all__ = ["TriggerSpec", "ExpressionAnalysis", "ActionCall", "XmlTriggerEvent", "analyze"]

# The XML trigger events are the same three verbs as relational events.
XmlTriggerEvent = TriggerEvent

_UNSET = object()


@dataclass(frozen=True)
class ExpressionAnalysis:
    """Everything trigger registration needs from one expression.

    Grouping (the shape), the constants table (the constants) and grouped
    evaluation (the parameterized expression) all derive from one parse and
    are cached on the spec.  Bulk registration goes further and parses once
    per distinct *skeleton* — the expression's text with each literal
    replaced by its kind (:func:`~repro.xmlmodel.xpath.split_literals`):
    texts that differ only in literals share the first one's parameterized
    expression and shape and take their constants from the split.
    """

    parameterized: XPath
    constants: tuple[Any, ...]
    shape: str


#: Skeleton -> the analysis of the first text seen with it; one dict lives
#: for one bulk registration call (see :func:`analyze`).
Skeletons = dict[tuple[str, ...], ExpressionAnalysis]


def analyze(text: str, skeletons: Skeletons | None = None) -> ExpressionAnalysis:
    """The :class:`ExpressionAnalysis` of ``text``: one parse per skeleton.

    Without ``skeletons`` the text is parsed.  With it, a text whose
    skeleton was parsed before in the same dict reuses that parameterized
    expression and shape with its own constants; otherwise it is parsed
    (which validates it and raises its own error) and recorded.  A parse is
    recorded only if it saw exactly the split's literals, in order, as
    constants — a literal the grammar takes as structure (an attribute test
    written as a string) keeps its skeleton parsing per text.
    """
    if skeletons is None or (split := split_literals(text)) is None:
        return _parse(text)
    skeleton, constants = split
    shared = skeletons.get(skeleton)
    if shared is not None:
        return ExpressionAnalysis(shared.parameterized, constants, shared.shape)
    analysis = _parse(text)
    if analysis.constants == constants:
        skeletons[skeleton] = analysis
    return analysis


def _parse(text: str) -> ExpressionAnalysis:
    parameterized, constants, shape = analyze_expression(text)
    return ExpressionAnalysis(XPath(parameterized), tuple(constants), shape)


@dataclass
class TriggerSpec:
    """A parsed XML trigger definition.

    ``condition`` and each action argument are XPath/XQuery expressions over
    the variables ``OLD_NODE`` and ``NEW_NODE`` (only ``NEW_NODE`` is bound
    for INSERT events and only ``OLD_NODE`` for DELETE events).
    """

    name: str
    event: XmlTriggerEvent
    view: str
    path: tuple[str, ...]
    condition: str | None = None
    action_name: str = "notify"
    action_args: tuple[str, ...] = ()
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TriggerSyntaxError("trigger name must be non-empty")
        if not self.path:
            raise TriggerSyntaxError(f"trigger {self.name!r}: path must not be empty")
        self.path = tuple(self.path)
        self.action_args = tuple(self.action_args)

    # -- compiled pieces ---------------------------------------------------------

    def compiled_condition(self) -> XPath | None:
        """The condition compiled to an XPath expression (or ``None``)."""
        cached = self.__dict__.get("_compiled_condition", _UNSET)
        if cached is _UNSET:
            if self.condition is None or not self.condition.strip():
                cached = None
            else:
                cached = XPath(self.condition)
            self.__dict__["_compiled_condition"] = cached
        return cached

    def compiled_args(self) -> tuple[XPath, ...]:
        """The action arguments compiled to XPath expressions (cached)."""
        cached = self.__dict__.get("_compiled_args", _UNSET)
        if cached is _UNSET:
            cached = tuple(XPath(arg) for arg in self.action_args)
            self.__dict__["_compiled_args"] = cached
        return cached

    # -- analysis (grouping signature, constants, parameterized forms) -------------

    def condition_analysis(
        self, skeletons: Skeletons | None = None
    ) -> ExpressionAnalysis | None:
        """The condition's :class:`ExpressionAnalysis` (cached on the spec)."""
        cached = self.__dict__.get("_condition_analysis", _UNSET)
        if cached is _UNSET:
            if self.condition is None or not self.condition.strip():
                cached = None
            else:
                cached = analyze(self.condition, skeletons)
            self.__dict__["_condition_analysis"] = cached
        return cached

    def argument_analyses(
        self, skeletons: Skeletons | None = None
    ) -> tuple[ExpressionAnalysis, ...]:
        """Per action argument :class:`ExpressionAnalysis` (cached)."""
        cached = self.__dict__.get("_argument_analyses")
        if cached is None:
            cached = tuple(analyze(argument, skeletons) for argument in self.action_args)
            self.__dict__["_argument_analyses"] = cached
        return cached

    def structural_signature(self, skeletons: Skeletons | None = None) -> tuple:
        """Signature under which structurally similar triggers are grouped.

        Two triggers share a group (and hence one generated SQL trigger per
        table-event) iff they monitor the same view path for the same event
        and their conditions / action parameters differ only in literal
        constants.  ``skeletons`` is passed on to the first analysis of the
        condition and arguments (see :func:`analyze`).
        """
        cached = self.__dict__.get("_structural_signature")
        if cached is None:
            analysis = self.condition_analysis(skeletons)
            condition_shape = None if analysis is None else analysis.shape
            argument_shapes = tuple(a.shape for a in self.argument_analyses(skeletons))
            cached = (self.view, self.path, self.event.value, condition_shape,
                      self.action_name, argument_shapes)
            self.__dict__["_structural_signature"] = cached
        return cached

    def condition_constants(self) -> tuple[Any, ...]:
        """The literal constants of the condition (a row of the constants table)."""
        analysis = self.condition_analysis()
        return () if analysis is None else analysis.constants

    def references_old_node(self) -> bool:
        """Whether the condition or any action argument mentions ``OLD_NODE``."""
        texts = [self.condition or ""] + list(self.action_args)
        return any("OLD_NODE" in text for text in texts)

    def references_old_node_content(self) -> bool:
        """Whether ``OLD_NODE``'s *descendants* are referenced (not just attributes).

        Used by the GROUPED-AGG strategy: if only existence and attributes of
        the old node are needed, the old node's children never have to be
        constructed.
        """
        texts = [self.condition or ""] + list(self.action_args)
        for text in texts:
            index = text.find("OLD_NODE")
            while index != -1:
                rest = text[index + len("OLD_NODE"):]
                stripped = rest.lstrip()
                if stripped.startswith("/") and not stripped.startswith("/@"):
                    return True
                index = text.find("OLD_NODE", index + 1)
        return False

    def path_string(self) -> str:
        """The monitored path as ``view('name')/a/b`` text."""
        return f"view('{self.view}')/" + "/".join(self.path)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" WHERE {self.condition}" if self.condition else ""
        args = ", ".join(self.action_args)
        return (
            f"CREATE TRIGGER {self.name} AFTER {self.event.value} ON "
            f"{self.path_string()}{where} DO {self.action_name}({args})"
        )


@dataclass
class ActionCall:
    """One invocation of a trigger's external action function."""

    trigger_name: str
    action_name: str
    arguments: tuple[Any, ...]
    old_node: XmlNode | None
    new_node: XmlNode | None
    key: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActionCall({self.trigger_name}: {self.action_name}/{len(self.arguments)} args)"
