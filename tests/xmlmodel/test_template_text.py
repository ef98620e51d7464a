"""Template text ≡ ``serialize`` of the interpreter's tree, byte for byte.

The compiled element constructor returns a deferred element whose text is
written by its shape's template (``xmlmodel.shape.ElementShape``), not by
a walk of a tree.  For generated constructors — repeated attribute names,
labelled and unlabelled positions, nested constructors — and generated
slot values (``& < > "`` in attribute and text slots, NULL, ``''``, ``1``,
``1.0``, ``2.5``, ``True``, ``nan``, fragments, documents), that text, the
attribute reads and the assembled tree must equal what
``ElementConstructor.evaluate`` builds.  Nested ``xmlfrag`` is checked at
depth 3 through the compiled aggregate.  ``nodes_differ`` — the compiled
``OLD_NODE ≠ NEW_NODE`` — must answer as deep equality of the interpreter's
trees does: on generated pairs, on the value pairs where text and value
semantics are easy to confuse (``1`` / ``1.0``, ``True`` / ``1``, NULL /
``''``), and on adjacent unlabelled atoms, whose texts can be equal while
their trees differ.
``REPRO_PROPERTY_EXAMPLES`` scales the generated cases.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.core.affected_nodes import nodes_differ
from repro.xmlmodel import serialize
from repro.xmlmodel.node import DeferredElement, Document, Element, Fragment, Text
from repro.xqgm.expressions import (
    AggregateSpec,
    AttributeSpec,
    ColumnRef,
    Constant,
    ElementConstructor,
    SlotView,
    compile_expr,
)

from tests.property.differential import budget

#: The row every generated constructor reads: ``v0`` … ``v3``.
COLUMNS = ("v0", "v1", "v2", "v3")
LAYOUT = {column: slot for slot, column in enumerate(COLUMNS)}

_MARKUP = st.sampled_from(["&", "<", ">", '"', 'a&b<c>"d', "&amp;", "x y"])
ATOMS = st.one_of(
    st.none(),
    st.sampled_from(["", 1, 1.0, 2.5, True, False, float("nan"), -0.0, 1e20, 10**20]),
    _MARKUP,
    st.text(alphabet='&<>"ab ', max_size=6),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
)
NODES = st.sampled_from([
    Fragment(),
    Fragment([Element("x", {"q": 'a"&'}), Text("t<")]),
    Document(Element("root", None, [Element("leaf")])),
    Element("e", {"a": 1}, [Text("&")]),
])
VALUES = st.one_of(ATOMS, ATOMS, NODES)


def _constructors(depth: int):
    children = [st.sampled_from(COLUMNS).map(ColumnRef), ATOMS.map(Constant)]
    if depth:
        children.append(_constructors(depth - 1))
    return st.builds(
        lambda name, attributes, positions: ElementConstructor(
            name,
            tuple(AttributeSpec(attribute, value) for attribute, value in attributes),
            tuple(child for child, _ in positions),
            tuple(label for _, label in positions),
        ),
        st.sampled_from(["out", "in"]),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.one_of(st.sampled_from(COLUMNS).map(ColumnRef), ATOMS.map(Constant)),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(st.one_of(*children), st.one_of(st.none(), st.sampled_from(["w", "x"]))),
            max_size=4,
        ),
    )


CONSTRUCTORS = _constructors(2)
ROWS = st.tuples(*(VALUES for _ in COLUMNS))


def _both(constructor: ElementConstructor, row: tuple):
    """``(compiled deferred element, interpreter tree)`` for one row."""
    compiled = compile_expr(constructor, LAYOUT)(row, None)
    assert type(compiled) is DeferredElement
    return compiled, constructor.evaluate(SlotView(LAYOUT, row))


#: Adjacent unlabelled atomic children.
_ADJACENT = ElementConstructor("out", (), (ColumnRef("v0"), ColumnRef("v1"), ColumnRef("v2")))


def _row(*values) -> tuple:
    """A row of ``COLUMNS`` that starts with ``values``, NULL after them."""
    return values + (None,) * (len(COLUMNS) - len(values))


@budget()
@given(constructor=CONSTRUCTORS, row=ROWS)
@example(
    constructor=ElementConstructor(
        "out", (AttributeSpec("a", ColumnRef("v0")), AttributeSpec("b", ColumnRef("v1"))),
        (ColumnRef("v2"), ColumnRef("v3")), ("w", None),
    ),
    row=('q"&<>', 'x"', 'a&b<c>"d', "&<>"),
)
@example(constructor=_ADJACENT, row=("a", 1, 2.5, None))
@example(constructor=ElementConstructor("out"), row=(None, None, None, None))
@example(
    constructor=ElementConstructor("out", (), (ColumnRef("v0"), ColumnRef("v1")), (None, "e")),
    row=(None, None, None, None),
)
def test_template_text_is_the_interpreter_tree_serialized(constructor, row):
    compiled, tree = _both(constructor, row)
    expected = serialize(tree)
    assert compiled.text == serialize(compiled) == expected
    for spec in constructor.attributes:
        assert compiled.attribute(spec.name) == tree.attribute(spec.name)
    assert compiled.attribute("absent") is None
    # The assembled tree is the interpreter's, and walking it (a copy is a
    # plain tree: no template anywhere in it) writes the template's bytes.
    assert compiled == tree
    assert serialize(compiled.copy()) == expected


@budget()
@given(
    groups=st.lists(
        st.tuples(ATOMS, st.lists(st.tuples(ATOMS, st.lists(st.tuples(ATOMS, ATOMS), max_size=3)),
                                  max_size=3)),
        max_size=3,
    ),
)
@example(groups=[("t&", [('m"', [(1.0, "<a>"), (None, "")]), ("n", [])])])
def test_nested_xmlfrag_at_depth_three(groups):
    leaf = ElementConstructor("leaf", (AttributeSpec("k", ColumnRef("k")),),
                              (ColumnRef("v"),), ("price",))
    mid = ElementConstructor("mid", (AttributeSpec("name", ColumnRef("n")),), (ColumnRef("f"),))
    top = ElementConstructor("top", (AttributeSpec("name", ColumnRef("n")),), (ColumnRef("f"),))
    frag = AggregateSpec("f", "xmlfrag", ColumnRef("node"))
    compiled_frag = frag.compile({"node": 0})
    leaf_c = compile_expr(leaf, {"k": 0, "v": 1})
    mid_c = compile_expr(mid, {"n": 0, "f": 1})
    top_c = compile_expr(top, {"n": 0, "f": 1})

    compiled_tops, trees = [], []
    for top_name, mids in groups:
        compiled_mids, tree_mids = [], []
        for mid_name, leaves in mids:
            nodes = [leaf_c((k, v), None) for k, v in leaves]
            compiled_fragment = compiled_frag([(n,) for n in nodes], None)
            compiled_mids.append(mid_c((mid_name, compiled_fragment), None))
            fragment = frag.compute([{"node": leaf.evaluate({"k": k, "v": v})} for k, v in leaves])
            tree_mids.append(mid.evaluate({"n": mid_name, "f": fragment}))
        compiled_tops.append(
            top_c((top_name, compiled_frag([(m,) for m in compiled_mids], None)), None)
        )
        trees.append(top.evaluate({"n": top_name, "f": frag.compute(
            [{"node": m} for m in tree_mids]
        )}))
    for compiled, tree in zip(compiled_tops, trees):
        assert serialize(compiled) == serialize(tree)
        assert compiled == tree


@budget()
@given(constructor=CONSTRUCTORS, other=CONSTRUCTORS, rows=st.tuples(ROWS, ROWS))
@example(constructor=_ADJACENT, other=_ADJACENT, rows=(_row("a", "b"), _row("ab", "")))
@example(constructor=_ADJACENT, other=_ADJACENT, rows=(_row("ab", None), _row("ab", "")))
@example(constructor=_ADJACENT, other=_ADJACENT, rows=(_row(1, None), _row("1", None)))
def test_nodes_differ_answers_as_deep_equality_does(constructor, other, rows):
    for left_shape, right_shape in ((constructor, constructor), (constructor, other)):
        left, left_tree = _both(left_shape, rows[0])
        right, right_tree = _both(right_shape, rows[1])
        assert nodes_differ(left, right) == (left_tree != right_tree)
        assert nodes_differ(left_tree, right_tree) == nodes_differ(left, right)
        assert not nodes_differ(left, _both(left_shape, rows[0])[0])


def test_adjacent_atoms_with_equal_text_are_told_apart_by_their_trees():
    """``'a', 'b'`` and ``'ab', ''`` both write ``<out>ab</out>``; the texts
    agree, so deep equality decides, as in ``MaterializedBaseline``'s
    ``diff_node_maps``."""
    old, _ = _both(_ADJACENT, ("a", "b", None, None))
    new, _ = _both(_ADJACENT, ("ab", "", None, None))
    assert old.text == new.text == "<out>ab</out>"
    assert nodes_differ(old, new)
    same, _ = _both(_ADJACENT, (1, None, None, None))
    assert not nodes_differ(same, _both(_ADJACENT, ("1", None, None, None))[0])


#: Constructors with the value in an attribute, a labelled and an unlabelled
#: position.
_POSITIONS = {
    "attribute": ElementConstructor("out", (AttributeSpec("a", ColumnRef("v0")),)),
    "labelled": ElementConstructor("out", (), (ColumnRef("v0"),), ("w",)),
    "unlabelled": ElementConstructor("out", (), (ColumnRef("v0"),)),
}


@pytest.mark.parametrize("position", sorted(_POSITIONS))
@pytest.mark.parametrize("left, right", [(1, 1.0), (True, 1), (None, ""), (2.5, 2.5), ("", "")],
                         ids=["1-1.0", "True-1", "NULL-empty", "same-float", "same-empty"])
def test_nodes_differ_gives_deep_equality_s_answer(position, left, right):
    constructor = _POSITIONS[position]
    old, old_tree = _both(constructor, (left, None, None, None))
    new, new_tree = _both(constructor, (right, None, None, None))
    assert nodes_differ(old, new) == (old_tree != new_tree)
    assert nodes_differ(old, new) == nodes_differ(old_tree, new_tree)


@pytest.mark.parametrize("labels", [("price",), (None,)], ids=["labelled", "fragment"])
def test_a_compensated_old_node_differs_from_a_new_node_without_text(labels):
    """GROUPED-AGG's attributes-only OLD_NODE against a NEW_NODE with
    children — labelled, or a fragment of child elements as the views build
    them — is decided without writing text.  Against one whose fragment is
    empty the texts are equal, and the trees confirm it."""
    attributes = (AttributeSpec("name", ColumnRef("v0")),)
    old_shape = ElementConstructor("top", attributes)
    new_shape = ElementConstructor("top", attributes, (ColumnRef("v1"),), labels)
    old, _ = _both(old_shape, ("n", None, None, None))
    children = Fragment([Element("leaf")]) if labels == (None,) else 2.5
    new, _ = _both(new_shape, ("n", children, None, None))
    assert nodes_differ(old, new) and nodes_differ(new, old)
    assert old._text is None and new._text is None  # no text was written
    childless, _ = _both(new_shape, ("n", Fragment(), None, None))
    assert nodes_differ(old, childless) == (labels != (None,))
