"""The per-group matching engine: constants-row selection in ~O(matches).

A :class:`GroupMatcher` owns one trigger group's constants rows (the
Section 5.1 constants table) together with the per-atom indexes derived from
the group's :class:`~repro.matching.predicates.MatchPlan`:

* equality atoms probe an :class:`~repro.matching.indexes.EqualityHashIndex`
  keyed by canonicalized constants;
* range atoms stab an :class:`~repro.matching.indexes.IntervalTree` of the
  per-row accepted value intervals (one-sided constraints are open-ended
  intervals; incremental registrations buffer in a side list and trigger an
  amortized rebuild + atomic swap).

Candidate selection (:meth:`GroupMatcher.candidates`) evaluates each atom's
probe expression once per affected (OLD_NODE, NEW_NODE) pair — existential
node-set semantics: every item of the probe result is looked up and the
per-item row sets union — then intersects across atoms.  If the plan covers
the whole condition and nothing forced a conservative widening, the
candidates *are* the matches and the caller can skip condition evaluation
entirely; otherwise the full parameterized condition re-checks each
candidate, so indexing never changes semantics.  Selections that cannot use
an index at all fall back to the linear scan and are **counted**
(``matching_fallbacks``, one of the :data:`MATCH_COUNTERS` that the caller's
counters dict holds and ``evaluation_report()`` surfaces).

Row bookkeeping is incremental — ``create_trigger`` adds one row (or extends
an existing row's trigger list), ``drop_trigger`` removes one — and a whole
batch registered through ``register_triggers_bulk`` rebuilds the indexes
once.  Mutations only append to or atomically swap the underlying
structures, so shard-worker readers racing a DDL thread observe either the
old or the new index state, never a torn one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable

from repro.matching.indexes import EqualityHashIndex, Interval, IntervalTree, constant_key
from repro.matching.predicates import MatchPlan, ProbeAtom
from repro.xmlmodel.xpath import XPath, _as_nodeset, _number_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.grouping import ConstantsRow, GroupMember

__all__ = ["MATCH_COUNTERS", "MatchStats", "GroupMatcher"]

#: Incremental range registrations buffered before an index rebuild.
_REBUILD_MIN = 64


#: The counters :meth:`GroupMatcher.candidates` increments: indexed
#: selections, linear-scan selections (no indexable atom — the number the
#: equivalence suites assert to be **zero** on indexable populations, so a
#: silently degraded population can never masquerade as an indexed one),
#: atoms that could not narrow (non-numeric probe) and candidate rows
#: returned by indexed selections.
MATCH_COUNTERS = (
    "matching_probes",
    "matching_fallbacks",
    "matching_wide_probes",
    "matching_candidate_rows",
)


def MatchStats() -> dict[str, int]:
    """A counters dict seeded with :data:`MATCH_COUNTERS`.

    Kept under the name of the class it replaced only because
    ``benchmarks/e2e/replay.py`` imports it.
    """
    return dict.fromkeys(MATCH_COUNTERS, 0)


class _EqAtomIndex:
    """Runtime state of one equality atom."""

    __slots__ = ("atom", "index", "loose")

    def __init__(self, atom: ProbeAtom) -> None:
        self.atom = atom
        self.index = EqualityHashIndex()
        #: Rows whose constant equality can never certify (NaN); they stay on
        #: the residual-checked path.
        self.loose: list[int] = []

    def add(self, row_id: int, constant: Any) -> None:
        key = constant_key(constant)
        if key is None:
            self.loose.append(row_id)
        else:
            self.index.add(key, row_id)

    def remove(self, row_id: int, constant: Any) -> None:
        key = constant_key(constant)
        if key is None:
            if row_id in self.loose:
                self.loose = [row for row in self.loose if row != row_id]
        else:
            self.index.discard(key, row_id)


class _RangeAtomIndex:
    """Runtime state of one range atom (interval tree + pending buffer)."""

    __slots__ = ("atom", "tree", "items", "pending", "removed", "loose")

    def __init__(self, atom: ProbeAtom) -> None:
        self.atom = atom
        self.tree = IntervalTree()
        self.items: list[tuple[Interval, int]] = []
        self.pending: list[tuple[Interval, int]] = []
        self.removed: set[int] = set()
        #: Rows whose range constant is non-numeric (string-ordered ranges
        #: stay on the residual-checked path).
        self.loose: list[int] = []

    def _interval_for(self, constant: Any) -> Interval | None:
        number = _number_of(constant)
        if number is None or math.isnan(number):
            return None
        op = self.atom.op
        if op == "<":
            return Interval(high=number, high_inclusive=False)
        if op == "<=":
            return Interval(high=number, high_inclusive=True)
        if op == ">":
            return Interval(low=number, low_inclusive=False)
        return Interval(low=number, low_inclusive=True)  # '>='

    def add(self, row_id: int, constant: Any) -> None:
        interval = self._interval_for(constant)
        if interval is None:
            self.loose.append(row_id)
            return
        entry = (interval, row_id)
        self.items.append(entry)
        self.pending.append(entry)
        if len(self.pending) >= max(_REBUILD_MIN, len(self.items) // 8):
            self.rebuild()

    def remove(self, row_id: int, constant: Any) -> None:
        if self._interval_for(constant) is None:
            if row_id in self.loose:
                self.loose = [row for row in self.loose if row != row_id]
            return
        self.removed.add(row_id)
        if len(self.removed) >= max(_REBUILD_MIN, len(self.items) // 4):
            self.rebuild()

    def rebuild(self) -> None:
        """Fold the pending buffer into a fresh tree (atomic swap)."""
        live = [item for item in self.items if item[1] not in self.removed]
        tree = IntervalTree(live)
        self.items = live
        # Swap the tree in *before* clearing the buffer: a concurrent reader
        # may transiently see a row in both (set-union dedupes), never in
        # neither.
        self.tree = tree
        self.pending = []
        self.removed = set()

    def stab(self, value: float) -> set[int]:
        result = self.tree.stab(value)
        removed = self.removed
        if removed:
            result -= removed
        for interval, row_id in self.pending:
            if row_id not in removed and interval.contains(value):
                result.add(row_id)
        return result


class GroupMatcher:
    """Matches affected node pairs to a group's constants rows.

    The matcher *owns* the group's constants-row storage (rows keyed by
    their constants, in first-registration order — identical to
    ``TriggerGroup.constants_table()``), which both engines share: indexed
    selection via :meth:`candidates`, and the linear oracle via
    :meth:`rows`.
    """

    def __init__(self, condition: XPath | None, plan: MatchPlan | None) -> None:
        self.condition = condition
        self.plan = plan if condition is not None else None
        self._rows: list[ConstantsRow | None] = []
        self._by_key: dict[tuple, int] = {}
        self._eq: list[_EqAtomIndex] = []
        self._ranges: list[_RangeAtomIndex] = []
        self._has_loose = False
        if self.plan is not None:
            for atom in self.plan.atoms:
                if atom.is_equality:
                    self._eq.append(_EqAtomIndex(atom))
                else:
                    self._ranges.append(_RangeAtomIndex(atom))

    @classmethod
    def build(
        cls,
        condition: XPath | None,
        plan: MatchPlan | None,
        members: Iterable["GroupMember"],
    ) -> "GroupMatcher":
        """Build a matcher (and its indexes) once for a whole member set."""
        matcher = cls(condition, plan)
        for member in members:
            matcher.add_member(member)
        for range_index in matcher._ranges:
            range_index.rebuild()
        return matcher

    # ------------------------------------------------------------------ maintenance

    @property
    def row_count(self) -> int:
        """Live constants rows (distinct constant sets)."""
        return len(self._by_key)

    def rows(self) -> list["ConstantsRow"]:
        """Every live row in first-registration order (the linear oracle)."""
        return [row for row in self._rows if row is not None and row.trigger_names]

    def add_member(self, member: "GroupMember") -> None:
        """Index one newly registered trigger."""
        from repro.core.grouping import ConstantsRow

        key = member.constants_key
        ordinal = self._by_key.get(key)
        if ordinal is not None:
            row = self._rows[ordinal]
            if row is not None:
                # Tuple swap, not append: racing readers see old or new.
                row.trigger_names = row.trigger_names + (member.spec.name,)
                return
        row = ConstantsRow(
            trigger_names=(member.spec.name,),
            condition_constants=member.condition_constants,
            argument_constants=member.argument_constants,
        )
        ordinal = len(self._rows)
        self._rows.append(row)
        self._by_key[key] = ordinal
        self._index_row(ordinal, row)

    def _index_row(self, ordinal: int, row: "ConstantsRow") -> None:
        for eq in self._eq:
            eq.add(ordinal, self._constant(row, eq.atom))
        for rng in self._ranges:
            rng.add(ordinal, self._constant(row, rng.atom))
        if any(index.loose for index in (*self._eq, *self._ranges)):
            self._has_loose = True

    @staticmethod
    def _constant(row: "ConstantsRow", atom: ProbeAtom) -> Any:
        try:
            return row.condition_constants[atom.param]
        except IndexError:  # pragma: no cover - shapes guarantee arity
            return None

    def remove_member(self, name: str, constants_key: tuple) -> None:
        """Unregister one trigger; drops the row when its last trigger goes."""
        ordinal = self._by_key.get(constants_key)
        if ordinal is None:
            return
        row = self._rows[ordinal]
        if row is None:
            return
        remaining = tuple(n for n in row.trigger_names if n != name)
        row.trigger_names = remaining
        if remaining:
            return
        del self._by_key[constants_key]
        self._rows[ordinal] = None
        for eq in self._eq:
            eq.remove(ordinal, self._constant(row, eq.atom))
        for rng in self._ranges:
            rng.remove(ordinal, self._constant(row, rng.atom))

    # ------------------------------------------------------------------ matching

    def candidates(
        self,
        variables: dict[str, Any],
        counters: dict[str, int],
        *,
        shared_probe_cache: dict | None = None,
    ) -> tuple[list["ConstantsRow"], bool]:
        """Candidate rows for one affected pair, plus whether the full
        condition must still be evaluated per candidate.

        No condition: every row matches trivially (that *is* O(matches)).
        No indexable atom: linear fallback, counted in
        ``counters["matching_fallbacks"]``.
        Otherwise: per-atom index lookups, intersected; the residual check
        is skipped only when the plan covers the condition exactly and no
        atom had to widen conservatively.

        ``shared_probe_cache`` (typically ``TriggerContext.probe_cache``)
        shares xpath probe results across the trigger groups fired by one
        statement: a probe shape evaluated against the same pair of nodes
        yields the same node-set, so sibling groups reuse it instead of
        re-walking the XML.  Keyed by node *identity*, which is stable for
        the life of the context that owns the cache.
        """
        plan = self.plan
        if self.condition is None:
            return self.rows(), False
        if plan is None or not plan.indexable:
            counters["matching_fallbacks"] += 1
            return self.rows(), True

        counters["matching_probes"] += 1
        probe_values: dict[str, list[Any]]
        if shared_probe_cache is None:
            probe_values = {}
        else:
            pair_token = (id(variables.get("OLD_NODE")), id(variables.get("NEW_NODE")))
            probe_values = shared_probe_cache.setdefault(pair_token, {})
        selected: set[int] | None = None
        widened = False
        for eq in self._eq:
            items = self._probe_items(eq.atom, variables, probe_values)
            ids: set[int] = set()
            for item in items:
                ids.update(eq.index.probe(constant_key(item)))
            ids.update(eq.loose)
            selected = ids if selected is None else (selected & ids)
            if not selected:
                break
        if selected is None or selected:
            for rng in self._ranges:
                items = self._probe_items(rng.atom, variables, probe_values)
                ids = set()
                wide = False
                for item in items:
                    number = _number_of(item)
                    if number is None or math.isnan(number):
                        # String-ordered comparison: the numeric tree cannot
                        # exclude any row for this item; widen conservatively.
                        wide = True
                        break
                    ids |= rng.stab(number)
                if wide:
                    widened = True
                    counters["matching_wide_probes"] += 1
                    continue  # the atom contributes no narrowing
                ids.update(rng.loose)
                selected = ids if selected is None else (selected & ids)
                if not selected:
                    break

        if selected is None:
            # Every atom widened: nothing narrowed, check all rows.
            result = self.rows()
            counters["matching_candidate_rows"] += len(result)
            return result, True
        rows = self._rows
        result = []
        for ordinal in sorted(selected):
            row = rows[ordinal] if ordinal < len(rows) else None
            if row is not None and row.trigger_names:
                result.append(row)
        counters["matching_candidate_rows"] += len(result)
        needs_residual = (not plan.covered) or widened or self._has_loose
        return result, needs_residual

    @staticmethod
    def _probe_items(
        atom: ProbeAtom, variables: dict[str, Any], cache: dict[str, list[Any]]
    ) -> list[Any]:
        items = cache.get(atom.probe_shape)
        if items is None:
            items = _as_nodeset(atom.probe.evaluate(variables))
            cache[atom.probe_shape] = items
        return items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        atoms = len(self.plan.atoms) if self.plan is not None else 0
        return f"GroupMatcher(rows={self.row_count}, atoms={atoms})"
