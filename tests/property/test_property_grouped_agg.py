"""GROUPED-AGG against the Definition 2/3 oracle where compensation is subtle.

GROUPED-AGG (Section 5, Figure 16) never reads ``B_old``: it derives each
affected group's pre-update aggregates from the new-state ones and the
transition tables, and the compiled engine reads those new-state aggregates
off the ``NEW_NODE`` side's own group-by.  Two properties pin it to
:class:`~repro.core.baseline.MaterializedBaseline`:

* **No phantom OLD_NODE.**  On a ``having``-free copy of the catalog view
  pruning leaves the product group-by without aggregates; a group the
  statement *created* must still be absent from the old side (inserting the
  first vendor of a product fires INSERT, not UPDATE).  The compensation
  decides existence on a hidden row count.
* **Depth 3.**  Only the lowest level reads ``B_old``; the level above reads
  the *compensated* one — the old state — and must never be derived from the
  NEW side.  Spare top elements gain and lose their leaves (INSERT and DELETE
  of whole top nodes, as in the benchmark's ``fire_mixed_churn``), leaves
  come and go under populated tops and change price, per statement and per
  ``execute_batch``:
  compiled == interpreted value for value, in order, and both == oracle.

Both go through :mod:`tests.property.differential`, so OLD_NODE is compared
too: by its attributes where the translation is compensated, whole
elsewhere.

Randomness is reproducible from the session seed (``REPRO_TEST_SEED``, see
``docs/testing.md``); CI's stress step pins it and raises the budget.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, strategies as st

from repro.relational.dml import DeleteStatement, InsertStatement, UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm.views import catalog_view

from tests.property.differential import (
    BATCH,
    COMPILED,
    INTERPRETED,
    ORACLE,
    Scenario,
    budget,
    catalog,
    catalog_actions,
    catalog_steps,
    in_order,
    replay,
)

# ---------------------------------------------------------------------------
# No phantom OLD_NODE: a having-free catalog view
# ---------------------------------------------------------------------------

_CATALOG_TRIGGERS = [
    "CREATE TRIGGER Ins AFTER INSERT ON view('catalog')/product DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Upd AFTER UPDATE ON view('catalog')/product "
    "WHERE OLD_NODE/@name != 'none' DO sink(NEW_NODE/@name)",
    "CREATE TRIGGER Del AFTER DELETE ON view('catalog')/product DO sink(OLD_NODE/@name)",
]


def _having_free_catalog():
    view = catalog_view()
    view.roots[0].having = None
    return view


@given(actions=st.lists(catalog_actions(), min_size=1, max_size=6))
@example(actions=[("insert_vendor", "Amazon", "P4", 9)])  # the first vendor of P4
@budget()
def test_having_free_view_reports_no_phantom_old_node(actions):
    scenario = catalog(_CATALOG_TRIGGERS, [_having_free_catalog()])
    replay(scenario, [ORACLE, COMPILED], catalog_steps(actions))


# ---------------------------------------------------------------------------
# Depth 3: a compensated level below a plain one
# ---------------------------------------------------------------------------

#: 6 top elements x 2 mid elements x 2 leaves: one deleted leaf takes its mid
#: below the view's ``count >= 2`` predicate, two take the top away.
_PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)
_WORKLOAD = HierarchyWorkload(_PARAMETERS)
_TOPS, _MIDS, _LEAVES = _WORKLOAD.nodes_per_level()
_SPARES = 3
_TOP = f"view('{_PARAMETERS.view_name}')/topelem"
#: Every trigger reads at most OLD_NODE's attributes, so GROUPED-AGG
#: compensates every event's old side.
_HIERARCHY_TRIGGERS = [
    f"CREATE TRIGGER upd AFTER UPDATE ON {_TOP} WHERE OLD_NODE/@name != 'none' "
    f"DO collect(NEW_NODE)",
    f"CREATE TRIGGER big AFTER UPDATE ON {_TOP} "
    f"WHERE count(NEW_NODE/midelem1/leafelem) >= 4 DO collect(NEW_NODE/@name)",
    f"CREATE TRIGGER ins AFTER INSERT ON {_TOP} DO collect(NEW_NODE)",
    f"CREATE TRIGGER del AFTER DELETE ON {_TOP} DO collect(OLD_NODE/@name)",
]


def _hierarchy_database():
    """The fixture plus ``_SPARES`` top elements with one leafless mid each."""
    database = _WORKLOAD.build_database()
    database.load_rows("top", [
        {"id": _TOPS + 1 + spare, "name": f"spare_{spare}", "mfr": "maker_s"}
        for spare in range(_SPARES)
    ])
    database.load_rows("mid1", [
        {"id": _MIDS + 1 + spare, "parent_id": _TOPS + 1 + spare, "name": f"S{spare}"}
        for spare in range(_SPARES)
    ])
    return database


_SCENARIO = Scenario(
    _hierarchy_database, [_WORKLOAD.build_view()], _HIERARCHY_TRIGGERS, action="collect"
)


def _mids_of(top: int) -> list[int]:
    if top > _TOPS:
        return [_MIDS + top - _TOPS]
    return [top + _TOPS * branch for branch in range(2)]


def _statements(actions) -> list[tuple]:
    """``(top, statement)`` per action that applies, against the leaf rows
    as the statements before it leave them."""
    leaves = {row[0]: row[1] for row in _hierarchy_database().table("leaf")}
    next_leaf, statements = _LEAVES + 1, []
    for kind, top, pick, price in actions:
        spare = kind in ("fill_spare", "empty_spare")
        top = _TOPS + 1 + top % _SPARES if spare else 1 + top % _TOPS
        mids = _mids_of(top)
        under = sorted(leaf for leaf, mid in leaves.items() if mid in mids)
        if kind == "fill_spare" and not under:
            rows = [
                {"id": leaf, "parent_id": mids[0], "price": float(price), "code": f"new{leaf}"}
                for leaf in (next_leaf, next_leaf + 1)
            ]
        elif kind == "insert_leaf":
            rows = [{"id": next_leaf, "parent_id": mids[pick % 2], "price": float(price),
                     "code": f"n{next_leaf}"}]
        elif kind == "empty_spare" and under:
            doomed = under
        elif kind in ("delete_leaf", "update_leaf") and under:
            doomed = [under[pick % len(under)]]
        else:
            continue
        if kind in ("fill_spare", "insert_leaf"):
            next_leaf += len(rows)
            leaves.update((row["id"], row["parent_id"]) for row in rows)
            statements.append((top, InsertStatement("leaf", rows)))
        elif kind == "update_leaf":
            statements.append((top, UpdateStatement(
                "leaf", {"price": 1000.0 + price}, keys=[(leaf,) for leaf in doomed]
            )))
        else:
            for leaf in doomed:
                del leaves[leaf]
            statements.append((top, DeleteStatement("leaf", keys=[(leaf,) for leaf in doomed])))
    return statements


_hierarchy_actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["update_leaf", "update_leaf", "insert_leaf", "delete_leaf",
             "fill_spare", "empty_spare"]
        ),
        st.integers(0, 11),
        st.integers(0, 7),
        st.integers(1, 500),
    ),
    min_size=1,
    max_size=10,
)


@given(actions=_hierarchy_actions)
@example(actions=[("fill_spare", 0, 0, 5), ("update_leaf", 1, 0, 7), ("empty_spare", 0, 0, 1)])
@budget()
def test_depth3_grouped_agg_per_statement_matches_oracle(actions):
    steps = [[statement] for _, statement in _statements(actions)]
    run = replay(_SCENARIO, [ORACLE, COMPILED, INTERPRETED], steps)
    assert in_order(run.targets["compiled"]) == in_order(run.targets["interpreted"])


@given(actions=_hierarchy_actions)
@example(actions=[("fill_spare", 0, 0, 5), ("update_leaf", 1, 0, 7), ("fill_spare", 1, 0, 3)])
@budget()
def test_depth3_grouped_agg_batch_matches_oracle(actions):
    """One batch of statements on distinct top elements: a batch fires net
    transitions, which equal the per-statement ones only when no two
    statements touch one node."""
    batch, tops = [], set()
    for top, statement in _statements(actions):
        if top not in tops:
            tops.add(top)
            batch.append(statement)
    if not batch:
        return
    interpreted = replace(INTERPRETED, batched=True)
    run = replay(_SCENARIO, [ORACLE, BATCH, interpreted], [batch])
    assert in_order(run.targets["batch"]) == in_order(run.targets["interpreted"])
