"""Every element a statement constructs is delivered.

Figure 16's ``AffectedKeys`` CTE selects keys and nothing else, so the
affected-key graphs (``core/affected_keys.py``) are pruned to their key and
predicate columns: a statement builds XML only for the OLD/NEW nodes it
fires.  Pinned with a program counter, in the style of
``test_statement_scoped_rows.py``: on a depth-3 hierarchy with a GROUPED-AGG
``/topelem`` group, one leaf UPDATE creates exactly the elements reachable,
by identity, from the fired OLD/NEW nodes — no ``leafelem`` / ``midelem1``
built for an affected-key graph and thrown away.
"""

from __future__ import annotations

from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xmlmodel import node as node_module
from repro.xmlmodel.node import Element
from repro.xqgm import expressions

#: 6 top elements x 2 mid elements x 2 leaves.
_PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)


def _grouped_agg_service():
    workload = HierarchyWorkload(_PARAMETERS)
    service = ActiveViewService(workload.build_database())
    assert service.mode is ExecutionMode.GROUPED_AGG
    service.register_view(workload.build_view())
    service.register_action("collect", lambda node: None)
    service.register_triggers_bulk([
        f"CREATE TRIGGER t{i} AFTER UPDATE ON view('{_PARAMETERS.view_name}')/topelem "
        f"WHERE OLD_NODE/@name = '{workload.top_name(top)}' DO collect(NEW_NODE)"
        for i, top in enumerate([1, 1, 2, 3])
    ])
    assert service.group_count() == 1
    leaf = workload.leaf_ids_by_top()[1][0]
    return service, leaf


def _reachable(node) -> list:
    return [] if node is None else list(node.iter_descendants())


def test_one_update_builds_only_the_elements_it_fires(monkeypatch):
    service, leaf = _grouped_agg_service()
    service.execute(UpdateStatement("leaf", {"price": 1000.0}, keys=[(leaf,)]))
    created: list[Element] = []

    class Recorded(Element):
        """An element that notes its own creation."""

        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            node = super().__new__(cls)
            created.append(node)
            return node

    # Both the constructor closures and ``assemble_element`` create elements
    # through these module names.
    monkeypatch.setattr(node_module, "Element", Recorded)
    monkeypatch.setattr(expressions, "Element", Recorded)
    fired = len(service.fired)
    service.execute(UpdateStatement("leaf", {"price": 1001.0}, keys=[(leaf,)]))
    monkeypatch.undo()

    firings = service.fired[fired:]
    assert [f.trigger for f in firings] == ["t0", "t1"]
    delivered = {
        id(node)
        for f in firings
        for node in _reachable(f.old_node) + _reachable(f.new_node)
        if isinstance(node, Element)
    }
    built = {id(node) for node in created}
    names = sorted(node.name for node in created if id(node) not in delivered)
    assert built == delivered, f"built and never delivered: {names}"
    # One shallow OLD topelem; the NEW topelem with 2 mids x (1 + 2 leaves x 3).
    assert len(built) == 1 + 1 + 2 * (1 + 2 * 3)
    assert service.evaluation_report()["compiled_plan_fallbacks"] == 0
