"""Every evaluator fires like the Definition 2/3 oracle on the catalog view.

Random DML against the paper's catalog view goes through
:mod:`tests.property.differential` (see its docstring for the comparison):

* per statement, all six evaluators — the MATERIALIZED oracle, the
  interpreter, the compiled engine, the SQLite backend, ``execute_batch``
  and a server — in all three execution modes;
* a batch of independent statements (each on its own ``<product>``
  element: a batch fires net transitions, which equal the per-statement
  ones only when no two statements touch one node) against the same
  statements one by one and the oracle;
* batches of any statements, duplicate inserts included, through every
  engine's ``execute_batch``: a failing statement leaves its predecessors
  applied, and every engine fails alike;
* after snapshot + WAL recovery, the interpreter and the compiled engine on
  the recovered state;
* the generated Figure 17 hierarchy workload (nested fragments, min/max
  aggregates) on every engine and the server.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.core.service import ActiveViewService, ExecutionMode
from repro.workloads import HierarchyWorkload, WorkloadParameters

from tests.property.differential import (
    BATCH,
    COMPILED,
    EVERY_EVALUATOR,
    EXAMPLES,
    INTERPRETED,
    KINDS,
    MODES,
    ORACLE,
    SERVER,
    SQLITE,
    Scenario,
    budget,
    catalog,
    catalog_actions,
    catalog_database,
    catalog_steps,
    fired,
    replay,
    tables,
)

#: One scenario for every example: each mode's triggers translate once.
_CATALOG = catalog()


@MODES
@given(actions=st.lists(catalog_actions(), min_size=1, max_size=6))
@budget(max(25, EXAMPLES))
def test_every_evaluator_fires_like_the_oracle(mode, actions):
    replay(_CATALOG, EVERY_EVALUATOR, catalog_steps(actions), mode)


#: The catalog view keys <product> elements by *name*: P1 and P3 are both
#: "CRT 15" and feed one element.
_NAME_OF = {"P1": "CRT 15", "P2": "LCD 19", "P3": "CRT 15", "P4": "OLED 27"}


@MODES
@given(actions=st.lists(
    catalog_actions([kind for kind in KINDS if kind != "rename_product"]),
    min_size=1, max_size=8,
))
@budget(max(25, EXAMPLES))
def test_a_batch_of_independent_statements_fires_like_them_one_by_one(mode, actions):
    """Renames are left out: they move rows between elements."""
    chosen, groups = [], set()
    for action in actions:
        if _NAME_OF[action[2]] not in groups:
            groups.add(_NAME_OF[action[2]])
            chosen.append(action)
    steps = catalog_steps(chosen, batch_size=len(chosen))
    replay(_CATALOG, [ORACLE, COMPILED, BATCH], steps, mode)


@given(actions=st.lists(catalog_actions(), min_size=1, max_size=8), batch_size=st.integers(1, 4))
@budget()
def test_batches_fail_and_fire_alike_on_every_engine(actions, batch_size):
    engines = [replace(engine, batched=True) for engine in (INTERPRETED, COMPILED, SQLITE)]
    replay(_CATALOG, engines, catalog_steps(actions, batch_size), ExecutionMode.UNGROUPED)


@given(actions=st.lists(catalog_actions(), min_size=2, max_size=8), prefix=st.integers(1, 8))
@budget(max(10, EXAMPLES * 2 // 3))
def test_engines_agree_after_snapshot_and_wal_replay(actions, prefix, tmp_path_factory):
    """Recovery replays committed deltas straight into table storage,
    advancing the same per-table version counters as live DML."""
    from repro.persist import Snapshot, WriteAheadLog
    from repro.persist.recovery import SNAPSHOT_FILE, WAL_FILE, recover_database

    steps = catalog_steps(actions)
    directory = tmp_path_factory.mktemp("compiled-recovery")
    live_db = catalog_database()
    live = ActiveViewService(live_db, ExecutionMode.GROUPED_AGG)
    _CATALOG.install(live)
    wal = WriteAheadLog(directory / WAL_FILE, sync="flush")
    wal.truncate()
    Snapshot.capture(live_db, wal_lsn=0).write(directory / SNAPSHOT_FILE)
    wal.attach(live_db)
    for (statement,) in steps[:prefix]:
        live.execute(statement)
    wal.close()

    def recovered():
        database, recovered_wal = recover_database(directory)
        recovered_wal.close()
        return database

    assert tables(recovered().snapshot()) == tables(live_db.snapshot())
    replay(replace(_CATALOG, database=recovered), [INTERPRETED, COMPILED], steps[prefix:])


def test_generated_hierarchy_workload_fires_alike_everywhere():
    """The Figure 17 workload shape lowers fully on SQLite and fires like
    the interpreter, the compiled engine and the sharded server."""
    workload = HierarchyWorkload(WorkloadParameters(
        depth=2, leaf_tuples=256, fanout=16, num_triggers=12, satisfied_triggers=4, seed=21,
    ))
    scenario = Scenario(
        workload.build_database, [workload.build_view()], workload.trigger_definitions(),
        lambda: workload.build_sharded_database(2), action="collect",
    )
    statements = workload.update_statements(30, workload.build_database())
    run = replay(scenario, [INTERPRETED, COMPILED, SQLITE, SERVER], [[s] for s in statements])
    assert fired(run), "the property is vacuous if nothing fired"
