"""Compiled physical plans == interpreted, where the statement streams of
:mod:`tests.property.differential` do not reach.

The randomized engine differentials over statement streams live in
:mod:`tests.property.differential` and the suites built on it
(``test_property_evaluators.py`` above all).  This file keeps what does not
fit that shape:

* a sharded server fed by concurrent clients (compiled shard workers,
  plans shared through the server's plan cache) against a sequential
  interpreted service;
* the compiled engine fired around **every commit path** — per-statement
  DML, batched execution, bulk loads and WAL recovery replay — each firing
  compared against an interpreted evaluation of the same state;
* graph-level properties that draw *plans* rather than workloads: graphs
  holding ``clone_graph`` copies of a subgraph under a join and under a
  union (the structural twins translation produces, which lowering merges
  into one physical node) and a three-input inner join whose input
  cardinalities flip between executions of one plan (two recipes of one
  node) — compiled == interpreted in rows **and order**.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import InsertStatement, UpdateStatement
from repro.relational import TriggerEvent
from repro.relational.triggers import TriggerContext
from repro.xqgm import (
    AggregateSpec,
    Arithmetic,
    ColumnRef,
    Comparison,
    Constant,
    EvaluationContext,
    GroupByOp,
    JoinOp,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    evaluate,
)
from repro.xqgm.graph import clone_graph, walk
from repro.xqgm.physical import PInnerJoin, PlanCompiler
from repro.xqgm.rewrite import push_semijoin

from tests.conftest import build_paper_database
from tests.property.differential import EXAMPLES, PIDS, budget, catalog, catalog_database


def test_compiled_matches_oracle_through_sharded_server():
    """Sharded concurrent serving with compiled shard workers == oracle set."""
    from repro.serving import ActiveViewServer
    from repro.workloads import (
        HierarchyWorkload,
        WorkloadParameters,
        run_concurrent_clients,
    )

    parameters = WorkloadParameters(depth=2, leaf_tuples=256, fanout=16,
                                    num_triggers=16, satisfied_triggers=4, seed=21)
    workload = HierarchyWorkload(parameters)
    server = ActiveViewServer(workload.build_sharded_database(3))
    assert all(service.use_compiled_plans for service in server.services)
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    for definition in workload.trigger_definitions():
        server.create_trigger(definition)
    streams = workload.client_streams(4, 6)
    subscriber = server.subscribe("compiled-equiv", capacity=4096)
    with server:
        result = run_concurrent_clients(server, streams)
    assert not result.errors

    # Interpreted sequential oracle over the same statements.
    database = workload.build_database()
    service = ActiveViewService(database, use_compiled_plans=False)
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    for definition in workload.trigger_definitions():
        service.create_trigger(definition)
    for statement in (s for stream in streams for s in stream):
        service.execute(statement)

    served = {(a.trigger, a.event.value, a.key) for a in subscriber.drain()}
    expected = {(f.trigger, f.event.value, f.key) for f in service.fired}
    assert served == expected
    assert expected, "the property is vacuous if nothing fired"
    # The shard workers fired through the compiled engine.
    assert server.evaluation_report()["shared_side_evaluations"] > 0


def test_compiled_matches_interpreted_after_every_commit_path():
    """DML, batch, bulk load, and recovery replay: the next firing sees them.

    The compiled service is fired around each commit path; after every
    mutation its activations are compared against an interpreted evaluation
    of the *same* database — if rows computed before the mutation were ever
    served, the compiled log would diverge.
    """
    from repro.persist.recovery import replay_record
    from repro.relational.dml import Batch

    comp_db = catalog_database()
    comp = ActiveViewService(comp_db, ExecutionMode.UNGROUPED)
    catalog().install(comp)

    def fire_probe(n):
        """A no-op-free UPDATE probe that fires the product-path triggers.

        It prices every vendor, so every product is an affected key and the
        pushed-down sides read the whole view graph (product ⋈ vendor,
        grouped) each firing — whatever a commit path below changed.
        """
        return UpdateStatement("vendor", {"price": 100.0 + n}, where=lambda r: True)

    def check(tag):
        """Compiled firings for one probe == interpreted firings on same state.

        The same service executes one price probe through the compiled
        engine and a second distinct price probe with the engine flipped to
        interpreted (the flag is read per firing): both touch every
        monitored node, so the (trigger, key) activations must agree —
        unless the compiled side served stale cached rows.
        """
        mark = len(comp.fired)
        probe = fire_probe(check.counter)
        check.counter += 1
        comp.execute(probe)
        compiled_log = sorted((f.trigger, f.key) for f in comp.fired[mark:])
        # A second, distinct price value so neither update is a no-op.
        revert = UpdateStatement(
            "vendor", {"price": 500.0 + check.counter}, where=lambda r: True
        )
        mark2 = len(comp.fired)
        saved = comp.use_compiled_plans
        comp.use_compiled_plans = False
        comp.execute(revert)
        interpreted_log = sorted((f.trigger, f.key) for f in comp.fired[mark2:])
        comp.use_compiled_plans = saved
        # Same triggers, same node, equivalent transitions: the two logs
        # must name the same (trigger, key) pairs.
        assert compiled_log == interpreted_log, f"stale rows served after {tag}"

    check.counter = 0

    # Within one statement each side is evaluated once: the sibling UPDATE
    # groups — UNGROUPED: one per trigger — read the statement memo.
    comp.execute(fire_probe(-1))
    assert comp.evaluation_report()["pairs_memo_hits"] > 0
    comp.execute_batch(Batch([
        fire_probe(-2),
        InsertStatement("vendor", [{"vid": "Buy.com", "pid": "P4", "price": 1.0}]),
    ]))

    # 1. per-statement DML
    comp.execute(UpdateStatement(
        "vendor", {"price": 55.0},
        where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P1",
    ))
    check("per-statement DML")

    # 2. batched execution
    comp.execute_batch(Batch([
        UpdateStatement("vendor", {"price": 66.0},
                        where=lambda r: r["vid"] == "Bestbuy" and r["pid"] == "P1"),
        InsertStatement("vendor", [{"vid": "Newegg", "pid": "P3", "price": 77.0}]),
    ]))
    check("batched execution")

    # 3. trigger-bypassing bulk load
    comp_db.load_rows("vendor", [{"vid": "Walmart", "pid": "P3", "price": 88.0}])
    check("bulk load")

    # 4. recovery replay (applies deltas straight to table storage)
    schema = comp_db.schema("vendor")
    stored = list(comp_db.table("vendor").lookup(("vid", "pid"), ("Walmart", "P3")))[0]
    replaced = schema.row_from_mapping({"vid": "Walmart", "pid": "P3", "price": 11.0})
    replay_record(comp_db, {
        "kind": "apply",
        "deltas": [{
            "table": "vendor",
            "event": "UPDATE",
            "inserted": [list(replaced)],
            "deleted": [list(stored)],
        }],
    })
    check("recovery replay")


# ---------------------------------------------------------------------------
# Graph-level: structural twins (one physical node) and join recipes
# ---------------------------------------------------------------------------

_VARIANTS = [TableVariant.CURRENT, TableVariant.OLD, TableVariant.DELTA_INSERTED]


def _vendor_scan(db, variant=TableVariant.CURRENT):
    return TableOp("vendor", "V", db.schema("vendor").column_names, variant)


def _product_scan(db):
    return TableOp("product", "P", db.schema("product").column_names)


def _leg(db, shape, variant, threshold):
    """A subgraph over ``vendor`` that exposes ``V.pid`` (the twins' join key)."""
    vendor = _vendor_scan(db, variant)
    cheap = Comparison("<", ColumnRef("V.price"), Constant(float(threshold)))
    if shape == 0:
        return SelectOp(vendor, cheap)
    if shape == 1:
        return GroupByOp(vendor, ["V.pid"], [AggregateSpec("n", "count")])
    if shape == 2:
        return ProjectOp(
            SelectOp(vendor, cheap),
            [("V.pid", ColumnRef("V.pid")),
             ("double", Arithmetic("*", ColumnRef("V.price"), Constant(2)))],
        )
    return JoinOp([_product_scan(db), SelectOp(vendor, cheap)], equi_pairs=[("P.pid", "V.pid")])


def _renamed(op, suffix="#t"):
    return ProjectOp(op, [(column + suffix, ColumnRef(column)) for column in op.output_columns])


def _twin_graph(db, kind, leg, all_rows, with_product):
    """``leg`` beside a ``clone_graph`` copy of itself, as translation leaves them."""
    twin = clone_graph(leg)
    assert {op.id for op in walk(twin)}.isdisjoint(op.id for op in walk(leg))
    if kind == "join":  # distinct names: the copy renamed, then joined back on the key
        inputs, pairs = [leg, _renamed(twin)], [("V.pid", "V.pid#t")]
        if with_product and "P.pid" not in leg.output_columns:
            inputs.append(_product_scan(db))
            pairs.append(("V.pid", "P.pid"))
        return JoinOp(inputs, equi_pairs=pairs)
    if kind == "join_same_names":  # every column duplicated: the merge sites decide
        return JoinOp([leg, twin], equi_pairs=[("V.pid", "V.pid")])
    if kind == "union":
        return UnionOp([leg, twin, clone_graph(leg)], all=all_rows)
    # The translator's own shape: affected keys joined to a graph into which
    # push_semijoin copied (a deduplication of) those very keys.
    keys = _renamed(
        ProjectOp(_vendor_scan(db, TableVariant.DELTA_INSERTED), [("V.pid", ColumnRef("V.pid"))]),
        "#key",
    )
    pushed = push_semijoin(leg, [("V.pid", "V.pid#key")], clone_graph(keys))
    return JoinOp([keys, pushed], equi_pairs=[("V.pid#key", "V.pid")])


def _fired_context(db, pid, price):
    """Update one product's vendors, firing nothing: the transition tables
    the OLD / delta scans of a drawn graph read."""
    result = db.execute(
        UpdateStatement("vendor", {"price": float(price)}, where=lambda r: r["pid"] == pid),
        fire_triggers=False,
    )
    return TriggerContext(db, "vendor", TriggerEvent.UPDATE, result.inserted, result.deleted)


def _nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(
                getattr(node, "children", None)
                or [getattr(node, name) for name in ("input", "left", "right")
                    if hasattr(node, name)]
            )
    return list(seen.values())


@given(
    kind=st.sampled_from(["join", "join_same_names", "union", "pushed"]),
    shape=st.integers(0, 3),
    variant=st.sampled_from(_VARIANTS),
    threshold=st.integers(50, 400),
    all_rows=st.booleans(),
    with_product=st.booleans(),
    updates=st.lists(
        st.tuples(st.sampled_from(PIDS[:3]), st.integers(10, 400)), min_size=1, max_size=3
    ),
)
@budget(EXAMPLES * 4)
def test_twins_under_joins_and_unions_match_interpreted_in_order(
    kind, shape, variant, threshold, all_rows, with_product, updates
):
    db = build_paper_database(with_foreign_keys=False)
    top = _twin_graph(db, kind, _leg(db, shape, variant, threshold), all_rows, with_product)
    plan = PlanCompiler(db).plan(top)
    # The copies really are one node each: fewer nodes than logical operators.
    assert len(_nodes(plan.root)) < len(list(walk(top)))
    for pid, price in updates:  # one plan, several statements
        trigger_context = _fired_context(db, pid, price)
        interpreted = evaluate(top, EvaluationContext(db, trigger_context))
        compiled = plan.execute_mappings(EvaluationContext(db, trigger_context))
        assert compiled == interpreted


_growth = st.lists(
    st.tuples(st.sampled_from(["product", "vendor"]), st.integers(1, 12)), min_size=1, max_size=4
)


def _three_way(db):
    """vendor ⋈ product ⋈ per-product counts; every input's static estimate
    is a table size, so which input drives the join depends on the data."""
    counts = GroupByOp(
        _renamed(_vendor_scan(db), "#c"), ["V.pid#c"], [AggregateSpec("n", "count")]
    )
    return JoinOp(
        [SelectOp(_vendor_scan(db), Comparison(">", ColumnRef("V.price"), Constant(0.0))),
         SelectOp(_product_scan(db), Comparison("!=", ColumnRef("P.pname"), Constant("none"))),
         counts],
        equi_pairs=[("V.pid", "P.pid"), ("P.pid", "V.pid#c")],
    )


def _grow(db, table, count, serial):
    if table == "product":
        db.load_rows("product", [
            {"pid": f"X{serial}_{i}", "pname": f"extra {i}", "mfr": "m"} for i in range(count)
        ])
    else:
        db.load_rows("vendor", [
            {"vid": f"v{serial}_{i}", "pid": PIDS[i % 3], "price": 5.0 + i} for i in range(count)
        ])


@given(growth=_growth)
@budget(EXAMPLES * 2)
def test_three_input_join_follows_flipping_cardinalities(growth):
    db = build_paper_database(with_foreign_keys=False)
    top = _three_way(db)
    plan = PlanCompiler(db).plan(top)
    assert plan.execute_mappings(EvaluationContext(db)) == evaluate(top, EvaluationContext(db))
    for serial, (table, count) in enumerate(growth):
        _grow(db, table, count, serial)
        assert plan.execute_mappings(EvaluationContext(db)) == evaluate(
            top, EvaluationContext(db)
        )


def test_flipped_cardinalities_use_a_second_recipe_of_the_same_node():
    db = build_paper_database(with_foreign_keys=False)
    top = _three_way(db)
    plan = PlanCompiler(db).plan(top)
    (join,) = [node for node in _nodes(plan.root) if isinstance(node, PInnerJoin)]
    assert len(db.table("product")) < len(db.table("vendor"))
    assert plan.execute_mappings(EvaluationContext(db)) == evaluate(top, EvaluationContext(db))
    assert list(join._recipes) == [(1, 0, 2)]  # product drives
    _grow(db, "product", 12, 0)
    assert len(db.table("product")) > len(db.table("vendor"))
    assert plan.execute_mappings(EvaluationContext(db)) == evaluate(top, EvaluationContext(db))
    assert list(join._recipes) == [(1, 0, 2), (0, 2, 1)]
