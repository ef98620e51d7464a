"""Compile-time analysis of grouped conditions into indexable atoms.

A trigger group's parameterized condition (Section 5.1: every literal
replaced by a :class:`~repro.xmlmodel.xpath.Parameter` slot of the constants
table) is analyzed **once, when the group is compiled**, into a :class:`MatchPlan`:
the top-level conjunction is split and each conjunct of the form ::

    <probe expression>  OP  Parameter(i)      (either operand order)

with ``OP`` one of ``=  <  <=  >  >=`` and a parameter-free probe becomes a
:class:`ProbeAtom`.  At runtime the probe expression is evaluated once per
affected (OLD_NODE, NEW_NODE) pair and the atom's per-row constants are
resolved through an index — a hash index for ``=``, an interval tree for the
range operators — so candidate constants rows cost ~O(matches) instead of
one condition evaluation per registered row.

The analysis is *conservative*: conjuncts it cannot index (``!=``,
disjunctions, parameters on both sides, nested-predicate parameters) simply
produce no atom, and ``covered`` records whether the atom set is the whole
condition.  A non-covered plan narrows candidates with its atoms and then
re-checks the full condition per candidate, so indexing can never change
semantics; a plan with **no** atoms at all makes the matcher fall back to
the linear oracle scan, and that fallback is counted (never silent).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlmodel.xpath import Binary, Parameter, XPath, XPathExpr, expression_shape

__all__ = ["ProbeAtom", "MatchPlan", "analyze_condition", "condition_shape"]

#: Comparison operators indexable by the hash index / interval tree.
_EQ_OPS = {"="}
_RANGE_OPS = {"<", "<=", ">", ">="}
#: Operator flips for ``Parameter OP probe`` conjuncts.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class ProbeAtom:
    """One indexable conjunct: ``probe OP constants[param]``.

    ``op`` is normalized so the probed *value* is always the left operand
    (``value OP constant``); ``probe_shape`` keys the per-pair probe-value
    cache, so several atoms over one expression evaluate it once.
    """

    op: str
    probe: XPath
    probe_shape: str
    param: int

    @property
    def is_equality(self) -> bool:
        return self.op in _EQ_OPS


@dataclass(frozen=True)
class MatchPlan:
    """The indexable structure of one condition shape."""

    atoms: tuple[ProbeAtom, ...]
    #: Whether the atoms *are* the condition (a pure conjunction of indexed
    #: comparisons).  Covered plans skip the per-candidate residual check.
    covered: bool
    shape: str

    @property
    def indexable(self) -> bool:
        """Whether candidate selection can use an index at all."""
        return bool(self.atoms)


def _has_parameters(expr: XPathExpr) -> bool:
    if isinstance(expr, Parameter):
        return True
    return any(_has_parameters(child) for child in expr.children())


def _conjuncts(expr: XPathExpr) -> list[XPathExpr]:
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _atom_of(conjunct: XPathExpr) -> ProbeAtom | None:
    if not isinstance(conjunct, Binary):
        return None
    op = conjunct.op
    if op not in _EQ_OPS and op not in _RANGE_OPS:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(right, Parameter) and not _has_parameters(left):
        probe, param = left, right.index
    elif isinstance(left, Parameter) and not _has_parameters(right):
        probe, param, op = right, left.index, _FLIP[op]
    else:
        return None
    return ProbeAtom(
        op=op,
        probe=XPath(probe),
        probe_shape=expression_shape(probe),
        param=param,
    )


def condition_shape(condition: XPath | XPathExpr) -> str:
    """Canonical shape string of a (parameterized) condition — the plan key."""
    ast = condition.ast if isinstance(condition, XPath) else condition
    return expression_shape(ast)


def analyze_condition(condition: XPath | XPathExpr) -> MatchPlan:
    """Analyze a parameterized condition into its :class:`MatchPlan`."""
    ast = condition.ast if isinstance(condition, XPath) else condition
    atoms: list[ProbeAtom] = []
    covered = True
    for conjunct in _conjuncts(ast):
        atom = _atom_of(conjunct)
        if atom is None:
            covered = False
        else:
            atoms.append(atom)
    return MatchPlan(atoms=tuple(atoms), covered=covered and bool(atoms),
                     shape=condition_shape(ast))

