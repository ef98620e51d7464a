"""Element shapes: one compiled element constructor's template and assembly.

The compiled element constructor of :mod:`repro.xqgm.expressions` fixes an
:class:`ElementShape` when it is lowered and returns, per call, a
:class:`~repro.xmlmodel.node.DeferredElement` over the shape and the slot
values.  The shape writes that element's compact text through a template —
fixed tags, each slot formatted with :func:`~repro.xmlmodel.node.format_atomic`
and escaped for its position by the escapes of
:mod:`repro.xmlmodel.serialize` — and builds its attribute and child lists
when something first reads its structure.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.xmlmodel.node import (
    Attribute,
    Fragment,
    Text,
    XmlNode,
    as_node,
    assemble_element,
    format_atomic,
)
from repro.xmlmodel.serialize import escape_attribute, escape_text, serialize

__all__ = ["ElementShape"]

#: Values a labelled position wraps as one text node (``as_node``'s last case).
_TEXT_ATOMS = frozenset({str, int, float, bool})

#: :attr:`ElementShape.child_kind`: the shape has no child position, some
#: labelled position (so every element has a child), or only unlabelled ones.
NO_CHILDREN, SOME_CHILDREN, MAYBE_CHILDREN = "none", "some", "maybe"


def _unlabelled_text(value: Any) -> str:
    """Text of an unlabelled child value: nothing for NULL, a node's or a
    fragment's items' text, an atomic's escaped text."""
    if value is None:
        return ""
    if isinstance(value, Fragment):
        return "".join([serialize(item) for item in value.items])
    if isinstance(value, XmlNode):
        return serialize(value)
    return escape_text(format_atomic(value))


def _labelled_writer(label: str) -> Callable[[Any], str]:
    """Text of a labelled child position: one ``<label>`` element around the
    value, empty (``<label/>``) for NULL and for an empty fragment."""
    empty, opening, closing = f"<{label}/>", f"<{label}>", f"</{label}>"

    def write(value: Any) -> str:
        if value is None or (isinstance(value, Fragment) and not value.items):
            return empty
        return opening + _unlabelled_text(value) + closing

    return write


class ElementShape:
    """One element constructor's shape, fixed when it is lowered.

    An element built from it is a :class:`~repro.xmlmodel.node.DeferredElement`
    holding one value per attribute spec (in order) and then one per child
    position.  The shape answers four questions about such values:

    * :meth:`attribute` — an attribute's value, as ``Element.attribute``
      would return it (a repeated name keeps its first place and its last
      value, as ``Element.set_attribute`` does);
    * :meth:`empty` — whether the element has no child;
    * :meth:`render` — the compact XML text, written through a template:
      the tags are fixed, each slot is formatted and escaped for its
      position (attribute or text, NULL, number, boolean), byte for byte
      what :func:`~repro.xmlmodel.serialize.serialize` writes for the tree;
    * :meth:`assemble` — the attribute and child lists of that tree, built
      the way ``ElementConstructor.evaluate`` builds them (labelled wrappers,
      fragments spliced, atomics as text nodes).  Only the element's first
      structural read calls it.

    ``head`` — the name and the distinct attribute names in order — is equal
    for two shapes whenever their elements can be equal.
    """

    __slots__ = ("name", "head", "child_kind", "_attributes", "_attribute_index",
                 "_positions", "_writers", "_opening", "_closing")

    def __init__(
        self, name: str, attribute_names: Sequence[str], labels: Sequence[str | None]
    ) -> None:
        self.name = name
        last = {attribute: index for index, attribute in enumerate(attribute_names)}
        order = list(dict.fromkeys(attribute_names))
        self._attributes = [(attribute, last[attribute]) for attribute in order]
        self._attribute_index = {attribute: last[attribute] for attribute in order}
        width = len(attribute_names)
        self._positions = [(width + at, label) for at, label in enumerate(labels)]
        self._writers = [
            (index, _unlabelled_text if label is None else _labelled_writer(label))
            for index, label in self._positions
        ]
        self.head = (name, tuple(order))
        if not labels:
            self.child_kind = NO_CHILDREN
        elif any(label is not None for label in labels):
            self.child_kind = SOME_CHILDREN
        else:
            self.child_kind = MAYBE_CHILDREN
        self._opening = f"<{name}"
        self._closing = f"</{name}>"

    def empty(self, values: Sequence[Any]) -> bool:
        """Whether an element built from ``values`` has no child: no child
        position, or only unlabelled ones holding NULL or an empty fragment."""
        if self.child_kind is not MAYBE_CHILDREN:
            return self.child_kind is NO_CHILDREN
        return all(
            value is None or (isinstance(value, Fragment) and not value.items)
            for value in (values[index] for index, _ in self._positions)
        )

    def attribute(self, values: Sequence[Any], name: str) -> str | None:
        index = self._attribute_index.get(name)
        return None if index is None else format_atomic(values[index])

    def render(self, values: Sequence[Any]) -> str:
        head = self._opening
        if self._attributes:
            head += "".join([
                f' {attribute}="{escape_attribute(format_atomic(values[index]))}"'
                for attribute, index in self._attributes
            ])
        if self.empty(values):
            return head + "/>"
        return (
            head + ">"
            + "".join([write(values[index]) for index, write in self._writers])
            + self._closing
        )

    def assemble(self, values: Sequence[Any]) -> tuple[list[Attribute], list[XmlNode]]:
        attributes = [
            Attribute(attribute, "" if values[index] is None else values[index])
            for attribute, index in self._attributes
        ]
        nodes: list[XmlNode] = []
        for index, label in self._positions:
            value = values[index]
            if label is None:
                if value is None:
                    continue
                if isinstance(value, Fragment):
                    nodes.extend(value.items)
                else:
                    nodes.append(as_node(value))
            elif type(value) in _TEXT_ATOMS:
                nodes.append(assemble_element(label, [], [Text(value)]))
            elif value is None:
                nodes.append(assemble_element(label, [], []))
            elif isinstance(value, Fragment):
                nodes.append(assemble_element(label, [], list(value.items)))
            else:
                nodes.append(assemble_element(label, [], [as_node(value)]))
        return attributes, nodes
