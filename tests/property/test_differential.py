"""The differential driver itself: it compares something, and each of its
comparisons can fail.

Every property under ``tests/property/`` passes only as long as
:class:`~tests.property.differential.Replay` would notice a divergence.  A
fixed catalog stream fires every event on every evaluator, and an evaluator
broken on purpose — a dropped firing, a wrong error, a lost row, a stale
SQLite mirror, an engine that is not the one it claims to be, an OLD_NODE
without its children — fails the replay (or, for the OLD_NODE under
GROUPED-AGG's compensated side, passes it, as the one OLD_NODE rule says).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.core.service import ExecutionMode
from repro.xmlmodel import Element

from tests.property.differential import (
    BATCH,
    COMPILED,
    EVERY_EVALUATOR,
    INTERPRETED,
    MODES,
    ORACLE,
    SQLITE,
    catalog,
    catalog_steps,
    fired,
    replay,
)

#: Fires UPDATE (a price, then a rename into another element), INSERT (P4's
#: first vendor) and DELETE (the renamed-away element, then P4 again); the
#: last insert names a row already present and is skipped.
STEPS = catalog_steps([
    ("update_price", "Amazon", "P1", 110),
    ("insert_vendor", "Newegg", "P4", 99),
    ("rename_product", "Buy.com", "P2", 2),
    ("delete_product_vendors", "Newegg", "P4", 0),
    ("insert_vendor", "Amazon", "P1", 50),
])


@dataclass
class Broken:
    """``inner``'s run with ``breaks(run)`` applied: a stand-in for a mutant."""

    name: str
    inner: Any
    breaks: Callable[[Any], None]

    def open(self, scenario, mode, plans):
        run = self.inner.open(scenario, mode, plans)
        self.breaks(run)
        return run


def _on_firings(change: Callable[[str | None, list], tuple]) -> Callable[[Any], None]:
    """A break that rewrites every step's ``(error, firings)``."""
    def breaks(run) -> None:
        step = run.step
        run.step = lambda statements: change(*step(statements))
    return breaks


def test_catalog_steps_skip_present_inserts_and_keep_duplicate_new_ones():
    assert len(STEPS) == 4
    steps = catalog_steps(
        [("insert_vendor", "Newegg", "P1", 1), ("insert_vendor", "Newegg", "P1", 2)], batch_size=2,
    )
    assert [len(step) for step in steps] == [2]
    run = replay(catalog(), [ORACLE, COMPILED], steps, ExecutionMode.UNGROUPED)
    (error, records), = run.log
    assert error == "IntegrityError", "the second insert of one row fails"
    assert records, "the first fires"
    assert ("Newegg", "P1", 1.0) in run.runs[0].tables()["vendor"], "the first stays applied"


def test_a_failing_batch_fires_its_applied_prefix_like_the_oracle():
    """One new vendor row inserted twice in one step: the first insert
    applies and fires, the second raises — per statement and batched."""
    steps = catalog_steps(
        [("insert_vendor", "Newegg", "P1", 1), ("insert_vendor", "Newegg", "P1", 2)], batch_size=2,
    )
    run = replay(catalog(), [ORACLE, BATCH], steps)
    (error, records), = run.log
    assert error == "IntegrityError"
    assert records, "the applied prefix fires"


@MODES
def test_a_fixed_stream_fires_every_event_on_every_evaluator(mode):
    run = replay(catalog(), EVERY_EVALUATOR, STEPS, mode)
    assert {event for _, event, *_ in fired(run)} == {"INSERT", "UPDATE", "DELETE"}


def test_a_dropped_firing_fails_the_replay():
    lossy = Broken("lossy", COMPILED, _on_firings(lambda error, records: (error, records[1:])))
    with pytest.raises(AssertionError, match="lossy != oracle"):
        replay(catalog(), [ORACLE, lossy], STEPS)


def test_a_different_error_fails_the_replay():
    failing = Broken("failing", COMPILED, _on_firings(lambda error, records: ("Error", records)))
    with pytest.raises(AssertionError, match="failing != oracle"):
        replay(catalog(), [ORACLE, failing], STEPS)


def test_a_lost_row_fails_the_replay():
    def lose_a_row(run) -> None:
        tables = run.tables
        run.tables = lambda: {**tables(), "vendor": tables()["vendor"][1:]}

    with pytest.raises(AssertionError, match="forgetful tables != oracle"):
        replay(catalog(), [ORACLE, Broken("forgetful", COMPILED, lose_a_row)], STEPS)


def test_a_stale_sqlite_mirror_fails_the_replay():
    def drop_from_the_mirror(run) -> None:
        step = run.step

        def stale(statements):
            outcome = step(statements)
            run.target.backend._conn.execute(
                'DELETE FROM "vendor" WHERE rowid = (SELECT min(rowid) FROM "vendor")'
            )
            return outcome
        run.step = stale

    with pytest.raises(AssertionError, match="^vendor"):
        replay(catalog(), [ORACLE, Broken("stale", SQLITE, drop_from_the_mirror)], STEPS)


def _checked_as(engine) -> Callable[[Any], None]:
    def breaks(run) -> None:
        run.engine = engine
    return breaks


def test_the_interpreter_passed_off_as_the_compiled_engine_fails_the_replay():
    """The forced-interpreter mutant: the same firings, no shared side."""
    with pytest.raises(AssertionError, match="shared side evaluations"):
        replay(catalog(), [ORACLE, Broken("compiled", INTERPRETED, _checked_as(COMPILED))], STEPS)


def test_the_compiled_engine_passed_off_as_the_interpreter_fails_the_replay():
    with pytest.raises(AssertionError, match="the interpreter never shares a side"):
        replay(catalog(), [ORACLE, Broken("interpreted", COMPILED, _checked_as(INTERPRETED))], STEPS)


def _old_nodes(change: Callable[[Element], Element]) -> Callable[[Any], None]:
    return _on_firings(lambda error, records: (error, [
        (trigger, event, key, None if old is None else change(old), new)
        for trigger, event, key, old, new in records
    ]))


def _childless(old: Element) -> Element:
    return Element(old.name, old.attributes)


@pytest.mark.parametrize("mode", [ExecutionMode.UNGROUPED, ExecutionMode.GROUPED],
                         ids=lambda mode: mode.value)
def test_a_childless_old_node_fails_the_replay_where_uncompensated(mode):
    shallow = Broken("shallow", COMPILED, _old_nodes(_childless))
    with pytest.raises(AssertionError, match="shallow != oracle"):
        replay(catalog(), [ORACLE, shallow], STEPS, mode)


def test_a_childless_old_node_passes_on_the_compensated_side():
    run = replay(catalog(), [ORACLE, Broken("shallow", COMPILED, _old_nodes(_childless))], STEPS)
    assert any(old is not None for *_, old, _ in fired(run))


def test_a_wrong_old_node_attribute_fails_on_the_compensated_side():
    renamed = Broken("renamed", COMPILED, _old_nodes(lambda old: Element(old.name, {"name": "?"})))
    with pytest.raises(AssertionError, match="renamed != oracle"):
        replay(catalog(), [ORACLE, renamed], STEPS)
