"""Unit tests for the matching index structures (:mod:`repro.matching`).

Covers each structure against brute force and against the semantics it must
be congruent with: the interval tree on boundary / duplicate / open-ended
ranges, the path trie's step grammar against the trigger language's, the
equality hash index's canonical keys against XPath ``=`` semantics, and the
service-level index lifecycle (``invalidate_constants``, unregister /
re-register, bulk registration).
"""

from __future__ import annotations

import random

import pytest

from repro.core.grouping import TriggerGroup
from repro.core.language import parse_trigger
from repro.core.service import ActiveViewService, ExecutionMode
from repro.errors import TriggerError, TriggerSyntaxError
from repro.matching import (
    MATCH_COUNTERS,
    GroupMatcher,
    PathTrie,
    analyze_condition,
    constant_key,
)
from repro.matching.indexes import EqualityHashIndex, Interval, IntervalTree
from repro.xmlmodel.node import Element
from repro.xmlmodel.xpath import XPath, split_constants
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database


# ---------------------------------------------------------------------------
# constant_key — the equality congruence
# ---------------------------------------------------------------------------


class TestConstantKey:
    def test_numeric_forms_share_one_key(self):
        assert constant_key(15) == constant_key(15.0) == constant_key("15") == ("n", 15.0)
        assert constant_key("  15 ") == ("n", 15.0)  # XPath number() trims

    def test_strings_compare_as_strings(self):
        assert constant_key("CRT 15") == ("s", "CRT 15")
        assert constant_key("CRT 15") != constant_key("LCD 19")

    def test_families_never_collide(self):
        # If two string forms are equal, both coerce or neither does — so a
        # numeric key can never equal a string key.
        assert constant_key("15") != constant_key("15a")
        assert constant_key("15")[0] == "n" and constant_key("15a")[0] == "s"

    def test_nan_is_unindexable(self):
        # NaN != NaN numerically but 'nan' == 'nan' as strings: equality can
        # never be certified by a hash probe, so the key must be None.
        assert constant_key("nan") is None
        assert constant_key(float("nan")) is None


# ---------------------------------------------------------------------------
# EqualityHashIndex — collisions, unregister-then-reregister
# ---------------------------------------------------------------------------


class TestEqualityHashIndex:
    def test_collision_bucket_holds_all_rows(self):
        index = EqualityHashIndex()
        index.add(("s", "x"), 1)
        index.add(("s", "x"), 2)
        index.add(("s", "x"), 2)  # duplicate adds collapse
        assert list(index.probe(("s", "x"))) == [1, 2]
        assert len(index) == 2
        assert index.bucket_count == 1

    def test_unregister_then_reregister(self):
        index = EqualityHashIndex()
        index.add(("n", 15.0), 7)
        index.discard(("n", 15.0), 7)
        assert list(index.probe(("n", 15.0))) == []
        assert index.bucket_count == 0  # empty buckets are pruned
        index.add(("n", 15.0), 7)
        assert list(index.probe(("n", 15.0))) == [7]
        index.discard(("n", 15.0), 99)  # idempotent for absent rows
        assert list(index.probe(("n", 15.0))) == [7]

    def test_none_key_probes_nothing(self):
        index = EqualityHashIndex()
        index.add(("s", "x"), 1)
        assert list(index.probe(None)) == []


# ---------------------------------------------------------------------------
# IntervalTree — boundaries, duplicates, open ends, brute force
# ---------------------------------------------------------------------------


class TestIntervalTree:
    def test_boundary_inclusivity(self):
        tree = IntervalTree(
            [
                (Interval(10.0, 20.0), 0),  # [10, 20]
                (Interval(10.0, 20.0, low_inclusive=False), 1),  # (10, 20]
                (Interval(10.0, 20.0, high_inclusive=False), 2),  # [10, 20)
            ]
        )
        assert tree.stab(10.0) == {0, 2}
        assert tree.stab(20.0) == {0, 1}
        assert tree.stab(15.0) == {0, 1, 2}
        assert tree.stab(9.999) == set()
        assert tree.stab(20.001) == set()

    def test_duplicate_intervals(self):
        items = [(Interval(0.0, 1.0), i) for i in range(5)]
        tree = IntervalTree(items)
        assert tree.stab(0.5) == {0, 1, 2, 3, 4}
        assert len(tree) == 5

    def test_open_ended_intervals(self):
        tree = IntervalTree(
            [
                (Interval(high=10.0, high_inclusive=False), 0),  # (-inf, 10)
                (Interval(low=10.0), 1),  # [10, +inf)
                (Interval(), 2),  # (-inf, +inf)
            ]
        )
        assert tree.stab(-1e9) == {0, 2}
        assert tree.stab(10.0) == {1, 2}
        assert tree.stab(1e9) == {1, 2}

    def test_empty_tree(self):
        assert IntervalTree().stab(0.0) == set()
        assert len(IntervalTree()) == 0

    def test_against_brute_force(self):
        rng = random.Random(20260807)
        items = []
        for i in range(400):
            kind = rng.randrange(4)
            a, b = sorted((rng.uniform(-50, 50), rng.uniform(-50, 50)))
            if kind == 0:
                interval = Interval(
                    a, b,
                    low_inclusive=rng.random() < 0.5,
                    high_inclusive=rng.random() < 0.5,
                )
            elif kind == 1:
                interval = Interval(low=a, low_inclusive=rng.random() < 0.5)
            elif kind == 2:
                interval = Interval(high=b, high_inclusive=rng.random() < 0.5)
            else:
                interval = Interval()
            items.append((interval, i))
        tree = IntervalTree(items)
        probes = [rng.uniform(-60, 60) for _ in range(500)]
        # Exact endpoint stabs exercise the inclusivity boundaries.
        probes += [
            end
            for interval, _ in items[:80]
            for end in (interval.low, interval.high)
            if end is not None
        ]
        for value in probes:
            expected = {i for interval, i in items if interval.contains(value)}
            assert tree.stab(value) == expected


# ---------------------------------------------------------------------------
# PathTrie — step grammar consistent with language.py
# ---------------------------------------------------------------------------


class TestPathTrie:
    def test_prefixes_and_extensions(self):
        trie = PathTrie()
        trie.add(("catalog",), "top")
        trie.add(("catalog", "vendor"), "mid")
        trie.add(("catalog", "vendor", "price"), "leaf")
        assert trie.prefixes_of(("catalog", "vendor", "price")) == ["top", "mid", "leaf"]
        assert set(trie.extensions_of(("catalog",))) == {"top", "mid", "leaf"}
        assert trie.exact(("catalog", "vendor")) == ["mid"]
        assert trie.exact(("elsewhere",)) == []

    def test_discard_prunes_branches(self):
        trie = PathTrie()
        trie.add(("a", "b", "c"), 1)
        trie.discard(("a", "b", "c"), 1)
        assert len(trie) == 0
        assert ("a", "b", "c") not in trie
        assert list(iter(trie)) == []

    def test_step_grammar_consistent_with_trigger_language(self):
        # Consistency with language.py: every path the language *rejects*
        # (``//``, invalid step names) the trie rejects when split naively,
        # and every path the language *accepts* the trie accepts in its
        # normalized ``spec.path`` form — the trie can never hold a path the
        # trigger language cannot express, nor reject one it can.
        raw_paths = [
            "product//vendor",
            "product/",
            "/",
            "product/2nd",
            "pro-duct.v2/vendor",
        ]
        trie = PathTrie()
        for raw in raw_paths:
            statement = (
                f"CREATE TRIGGER T AFTER UPDATE ON view('catalog')/{raw} "
                "DO collect(NEW_NODE)"
            )
            try:
                spec = parse_trigger(statement)
            except TriggerSyntaxError:
                # The language refused the path; a naive split (keeping the
                # empty / invalid steps the language choked on) must refuse
                # it too.
                steps = tuple(raw.split("/"))
                with pytest.raises(ValueError):
                    trie.add(steps, "value")
            else:
                # The language normalized the path; the trie takes it as-is.
                trie.add(spec.path, raw)
                assert raw in trie.exact(spec.path)
        # Only the language-accepted paths made it in.
        assert {path for path, _ in trie} == {("product",), ("pro-duct.v2", "vendor")}

    def test_accepts_what_the_language_accepts(self):
        spec = parse_trigger(
            "CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product "
            "DO collect(NEW_NODE)"
        )
        trie = PathTrie()
        trie.add(spec.path, "sig")
        assert trie.exact(spec.path) == ["sig"]


# ---------------------------------------------------------------------------
# analyze_condition — atoms, covered, fallback
# ---------------------------------------------------------------------------


def _plan_for(text: str):
    parameterized, _ = split_constants(text)
    return analyze_condition(parameterized)


class TestAnalyzeCondition:
    def test_equality_and_ranges_covered(self):
        plan = _plan_for(
            "OLD_NODE/@name = 'x' and NEW_NODE/@price >= 10 and NEW_NODE/@price < 99"
        )
        assert plan.covered and plan.indexable
        assert [atom.op for atom in plan.atoms] == ["=", ">=", "<"]
        assert [atom.param for atom in plan.atoms] == [0, 1, 2]

    def test_reversed_operands_flip(self):
        plan = _plan_for("10 < NEW_NODE/@price")
        assert [atom.op for atom in plan.atoms] == [">"]

    def test_uncovered_conjunction(self):
        plan = _plan_for("OLD_NODE/@name = 'x' and NEW_NODE/@price != 5")
        assert plan.indexable and not plan.covered
        assert len(plan.atoms) == 1

    def test_unindexable_conditions(self):
        for text in ("NEW_NODE/@a != 'x'", "NEW_NODE/@a = 'x' or NEW_NODE/@b = 'y'"):
            plan = _plan_for(text)
            assert not plan.indexable and not plan.covered

    def test_shared_probe_expression_shares_shape(self):
        plan = _plan_for("NEW_NODE/@price >= 10 and NEW_NODE/@price < 99")
        assert plan.atoms[0].probe_shape == plan.atoms[1].probe_shape


# ---------------------------------------------------------------------------
# GroupMatcher — fallbacks are counted, never silent
# ---------------------------------------------------------------------------


class TestGroupMatcherFallback:
    def _matcher(self, condition_text: str) -> GroupMatcher:
        parameterized, constants = split_constants(condition_text)
        condition = XPath(parameterized)
        plan = analyze_condition(parameterized)
        spec = parse_trigger(
            f"CREATE TRIGGER T AFTER UPDATE ON view('catalog')/product "
            f"WHERE {condition_text} DO collect(NEW_NODE)"
        )
        group = TriggerGroup(spec.structural_signature())
        group.add(spec)
        return GroupMatcher.build(condition, plan, group.members)

    def test_unindexable_condition_counts_fallback(self):
        matcher = self._matcher("NEW_NODE/@name != 'x'")
        stats = dict.fromkeys(MATCH_COUNTERS, 0)
        node = Element("product", {"name": "y"})
        rows, needs_residual = matcher.candidates({"NEW_NODE": node, "OLD_NODE": node}, stats)
        assert needs_residual and len(rows) == 1
        assert stats["matching_fallbacks"] == 1 and stats["matching_probes"] == 0

    def test_indexable_condition_probes_without_fallback(self):
        matcher = self._matcher("NEW_NODE/@name = 'x'")
        stats = dict.fromkeys(MATCH_COUNTERS, 0)
        node = Element("product", {"name": "x"})
        rows, needs_residual = matcher.candidates({"NEW_NODE": node, "OLD_NODE": node}, stats)
        assert not needs_residual and len(rows) == 1
        assert stats["matching_fallbacks"] == 0 and stats["matching_probes"] == 1

    def test_non_numeric_probe_widens_range_atom(self):
        matcher = self._matcher("NEW_NODE/@price < 10")
        stats = dict.fromkeys(MATCH_COUNTERS, 0)
        node = Element("product", {"price": "not-a-number"})
        rows, needs_residual = matcher.candidates({"NEW_NODE": node, "OLD_NODE": node}, stats)
        # The numeric tree cannot exclude any row for a non-numeric value:
        # the full condition decides (string comparison semantics preserved).
        assert needs_residual and len(rows) == 1
        assert stats["matching_wide_probes"] == 1 and stats["matching_fallbacks"] == 0


# ---------------------------------------------------------------------------
# Service lifecycle — invalidate_constants, drop/re-register, bulk
# ---------------------------------------------------------------------------


def _service() -> ActiveViewService:
    service = ActiveViewService(
        build_paper_database(with_foreign_keys=False), ExecutionMode.GROUPED_AGG
    )
    service.register_view(catalog_view())
    service.register_action("collect", lambda *args: None)
    return service


def _matching_group(service: ActiveViewService):
    [compiled] = service._groups.values()
    return compiled


class TestServiceIndexLifecycle:
    TRIGGER = (
        "CREATE TRIGGER {name} AFTER UPDATE ON view('catalog')/product "
        "WHERE OLD_NODE/@name = '{constant}' DO collect(NEW_NODE)"
    )

    def test_index_state_after_invalidate_constants(self):
        service = _service()
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))
        compiled = _matching_group(service)
        matcher = compiled.matcher()
        assert matcher.row_count == 1
        compiled.invalidate_constants()
        # Invalidation marks the matcher dirty; the next access rebuilds a
        # fresh matcher reflecting the group's current members.
        service.create_trigger(self.TRIGGER.format(name="B", constant="LCD 19"))
        rebuilt = compiled.matcher()
        assert rebuilt is not matcher
        assert rebuilt.row_count == 2

    def test_incremental_add_and_remove_without_rebuild(self):
        service = _service()
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))
        compiled = _matching_group(service)
        matcher = compiled.matcher()
        service.create_trigger(self.TRIGGER.format(name="B", constant="LCD 19"))
        assert compiled.matcher() is matcher  # updated in place, not rebuilt
        assert matcher.row_count == 2
        service.drop_trigger("B")
        assert compiled.matcher() is matcher
        assert matcher.row_count == 1

    def test_unregister_then_reregister_fires_again(self):
        service = _service()
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))

        prices = iter([130.0, 131.0, 132.0])

        def fired_for_price_bump() -> list[str]:
            before = len(service.fired)
            service.update(
                "vendor", {"price": next(prices)}, lambda row: row["pid"] == "P1"
            )
            return [f.trigger for f in service.fired[before:]]

        assert fired_for_price_bump() == ["A"]
        service.drop_trigger("A")
        assert fired_for_price_bump() == []
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))
        assert fired_for_price_bump() == ["A"]
        assert service.evaluation_report()["matching_fallbacks"] == 0

    def test_shared_constants_row_survives_partial_drop(self):
        service = _service()
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))
        service.create_trigger(self.TRIGGER.format(name="B", constant="CRT 15"))
        compiled = _matching_group(service)
        assert compiled.matcher().row_count == 1  # one shared constants row
        service.drop_trigger("A")
        before = len(service.fired)
        service.update("vendor", {"price": 131.0}, lambda row: row["pid"] == "P1")
        assert [f.trigger for f in service.fired[before:]] == ["B"]

    def test_bulk_registration_matches_singles(self):
        bulk = _service()
        singles = _service()
        definitions = [
            self.TRIGGER.format(name=f"T{i}", constant=name)
            for i, name in enumerate(["CRT 15", "LCD 19", "CRT 17", "CRT 15"])
        ]
        specs = bulk.register_triggers_bulk(definitions)
        assert [spec.name for spec in specs] == ["T0", "T1", "T2", "T3"]
        for definition in definitions:
            singles.create_trigger(definition)
        for service in (bulk, singles):
            before = len(service.fired)
            service.update("vendor", {"price": 132.0}, lambda row: row["pid"] == "P1")
            assert sorted(f.trigger for f in service.fired[before:]) == ["T0", "T3"]
        assert bulk.monitored_groups("catalog") == singles.monitored_groups("catalog")

    def test_bulk_registration_validates_before_mutating(self):
        service = _service()
        with pytest.raises(TriggerError):
            service.register_triggers_bulk(
                [
                    self.TRIGGER.format(name="OK", constant="CRT 15"),
                    self.TRIGGER.format(name="OK", constant="LCD 19"),  # dup name
                ]
            )
        assert service.triggers == []  # nothing half-registered

    def test_drop_view_unregisters_monitored_paths(self):
        service = _service()
        service.create_trigger(self.TRIGGER.format(name="A", constant="CRT 15"))
        assert service.monitored_groups("catalog") != []
        service.drop_view("catalog")
        assert service.monitored_groups("catalog") == []
        assert service.triggers == []


class TestUngroupedModePathTrie:
    def test_drop_view_in_ungrouped_mode(self):
        # UNGROUPED mode registers one group per trigger at the same path:
        # the trie node holds several signatures and drop_view finds them all.
        service = ActiveViewService(
            build_paper_database(with_foreign_keys=False), ExecutionMode.UNGROUPED
        )
        service.register_view(catalog_view())
        service.register_action("collect", lambda *args: None)
        for i in range(3):
            service.create_trigger(
                TestServiceIndexLifecycle.TRIGGER.format(name=f"U{i}", constant="CRT 15")
            )
        assert len(service.monitored_groups("catalog")) == 3
        service.drop_view("catalog")
        assert service.triggers == [] and service.group_count() == 0


class TestBulkSpecReuse:
    def test_bulk_accepts_parsed_specs(self):
        service = _service()
        specs = [
            parse_trigger(
                TestServiceIndexLifecycle.TRIGGER.format(name="S1", constant="CRT 15")
            )
        ]
        created = service.register_triggers_bulk(specs)
        assert created[0] is specs[0]

    def test_bulk_rejects_unknown_view(self):
        service = _service()
        spec = parse_trigger(
            "CREATE TRIGGER X AFTER UPDATE ON view('nope')/product DO collect(NEW_NODE)"
        )
        with pytest.raises(TriggerError):
            service.register_triggers_bulk([spec])
        assert service.triggers == []
