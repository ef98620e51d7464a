"""No element is assembled unless something reads it.

The paper's tagger emits ``OLD_NODE`` / ``NEW_NODE`` as text (Appendix
E.1).  The compiled element constructor returns a
:class:`~repro.xmlmodel.node.DeferredElement` — the constructor's shape plus
its slot values — whose text comes from the shape's template and whose
attribute and child lists are assembled only on the first structural read.
Pinned with counts, in the style of ``test_statement_scoped_rows.py``:

* an ``@name``-only GROUPED-AGG group whose action ignores its argument,
  behind a durable server with a durable subscriber, assembles nothing for
  either fired node of a leaf UPDATE — no ``Element``, no ``Text`` — while
  the outbox record and the subscriber get the interpreter's text;
* a ``count(NEW_NODE/midelem1/leafelem)`` group beside an ``@name`` group on
  the same path assembles the NEW node (and each ``midelem1`` it steps
  through) exactly once, shared by both groups.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.service import ActiveViewService, ExecutionMode
from repro.relational.dml import UpdateStatement
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xmlmodel import node as node_module
from repro.xmlmodel import serialize, shape
from repro.xmlmodel.node import Element, Text
from repro.xqgm import expressions

from tests.serving.conftest import (
    SIBLINGS,
    load_sibling_durable,
    open_sibling_durable,
    price_update,
    sibling_hierarchy,
    sibling_triggers,
)


@pytest.fixture
def assembled(monkeypatch) -> Counter:
    """Counts what is built while the test runs: ``"element"`` / ``"text"``
    for every plain ``Element`` / ``Text`` created, and the id of the value
    list of every deferred element assembled (once per assembly)."""
    counts: Counter = Counter()

    class RecordedElement(Element):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            counts["element"] += 1
            return super().__new__(cls)

    class RecordedText(Text):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            counts["text"] += 1
            return super().__new__(cls)

    # ``assemble_element`` and the constructors resolve these module names.
    for module in (node_module, expressions):
        monkeypatch.setattr(module, "Element", RecordedElement)
    for module in (node_module, shape, expressions):
        monkeypatch.setattr(module, "Text", RecordedText)
    shape_assemble = shape.ElementShape.assemble

    def recording_assemble(shape, values):
        counts[id(values)] += 1
        return shape_assemble(shape, values)

    monkeypatch.setattr(shape.ElementShape, "assemble", recording_assemble)
    return counts


def _interpreted_texts(workload: HierarchyWorkload, triggers, statements) -> set:
    """``(trigger, OLD text, NEW text)`` the interpreter fires for the last
    statement, on its own database."""
    oracle = ActiveViewService(workload.build_database(), use_compiled_plans=False)
    oracle.register_view(workload.build_view())
    oracle.register_action("collect", lambda node: None)
    oracle.register_triggers_bulk(triggers)
    for statement in statements[:-1]:
        oracle.execute(statement)
    mark = len(oracle.fired)
    oracle.execute(statements[-1])
    return {
        (f.trigger, serialize(f.old_node), serialize(f.new_node)) for f in oracle.fired[mark:]
    }


def test_a_durable_name_only_group_assembles_nothing(tmp_path, assembled):
    workload = sibling_hierarchy()
    durable = open_sibling_durable(tmp_path, workload, shard_count=1)
    load_sibling_durable(durable, workload)
    assert durable.server.services[0].mode is ExecutionMode.GROUPED_AGG
    inbox = durable.subscribe("inbox", capacity=64)
    statements = [price_update(workload, 5, 901.0), price_update(workload, 5, 902.0)]
    try:
        durable.start()
        durable.execute(statements[0])  # warm: translations, indexes, caches
        assert len(inbox.drain()) == SIBLINGS
        records = len(list(durable.outbox.replay()))
        assembled.clear()
        durable.execute(statements[1])
        delivered = [inbox.get(timeout=30) for _ in range(SIBLINGS)]
        texts = {
            (a.trigger, a.encoded.old_text, a.encoded.new_text) for a in delivered
        }
        assert not +assembled, f"assembled for a name-only group: {dict(+assembled)}"
        logged = list(durable.outbox.replay())[records:]
    finally:
        durable.close()
    expected = _interpreted_texts(workload, sibling_triggers(workload), statements)
    assert len(expected) == SIBLINGS
    assert texts == expected
    # One bundle, one distinct pair in its node table: the same text.
    ((record,),) = [logged]
    ((old, new),) = record["nodes"]
    assert {(old, new)} == {(o, n) for _, o, n in expected}
    assert old.startswith("<topelem ") and old.endswith("/>") and "<leafelem>" in new


#: 6 top elements x 2 mid elements x 2 leaves.
_DEPTH3 = WorkloadParameters(
    depth=3, leaf_tuples=24, fanout=4, num_triggers=1, satisfied_triggers=1, seed=5
)


def test_a_count_group_beside_a_name_group_assembles_each_new_node_once(assembled):
    workload = HierarchyWorkload(_DEPTH3)
    service = ActiveViewService(workload.build_database())
    assert service.mode is ExecutionMode.GROUPED_AGG
    service.register_view(workload.build_view())
    received: list = []
    service.register_action("collect", received.append)
    top = workload.top_name(1)
    path = f"view('{_DEPTH3.view_name}')/topelem"
    service.register_triggers_bulk([
        f"CREATE TRIGGER named AFTER UPDATE ON {path} "
        f"WHERE OLD_NODE/@name = '{top}' DO collect(NEW_NODE)",
        f"CREATE TRIGGER counted AFTER UPDATE ON {path} "
        f"WHERE OLD_NODE/@name = '{top}' and count(NEW_NODE/midelem1/leafelem) >= 2 "
        f"DO collect(NEW_NODE)",
    ])
    assert service.group_count() == 2
    leaf = workload.leaf_ids_by_top()[1][0]
    service.execute(UpdateStatement("leaf", {"price": 1000.0}, keys=[(leaf,)]))
    assembled.clear()
    received.clear()
    service.execute(UpdateStatement("leaf", {"price": 1001.0}, keys=[(leaf,)]))
    per_node = {key: count for key, count in assembled.items() if isinstance(key, int)}

    assert sorted(f.trigger for f in service.fired[-2:]) == ["counted", "named"]
    (new_node,) = {id(node): node for node in received}.values()  # one shared NEW node
    # (``child_elements`` would test against the recording class.)
    mids = [child for child in new_node.children if child.name == "midelem1"]
    assert len(mids) == 2
    # The top and the two mids it steps through, each once; no leaf.
    assert len(per_node) == 3 and set(per_node.values()) == {1}, per_node
    assert {id(node.values) for node in [new_node, *mids]} == set(per_node)
    assert assembled["element"] == assembled["text"] == 0
