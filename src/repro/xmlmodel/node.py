"""XML node classes used throughout the system.

The model is deliberately small: elements (with ordered attributes and
children), text nodes, and fragments (ordered sequences of nodes, the result
of the paper's ``aggXMLFrag`` aggregate).  Nodes compare by *value*
(deep equality).  The compiled element constructor returns
:class:`DeferredElement`: an element that keeps its constructor's shape and
slot values, and builds its attribute and child lists only when something
reads them.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import XmlError

__all__ = [
    "XmlNode",
    "Element",
    "DeferredElement",
    "Text",
    "Fragment",
    "Attribute",
    "Document",
    "element",
    "text",
    "fragment",
    "as_node",
    "assemble_element",
    "format_atomic",
]


def format_atomic(value: Any) -> str:
    """Render an atomic Python value as XML text content."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer():
            return f"{value:.1f}"
        return repr(value)
    return str(value)


class XmlNode:
    """Abstract base class for all XML nodes."""

    def string_value(self) -> str:
        """The concatenated text content of this node (XPath string-value)."""
        raise NotImplementedError

    def copy(self) -> "XmlNode":
        """Deep copy of this node."""
        raise NotImplementedError

    def iter_descendants(self) -> Iterator["XmlNode"]:
        """Yield this node and all descendants in document order."""
        yield self


class Attribute:
    """A name/value attribute pair attached to an element."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Any) -> None:
        if not name:
            raise XmlError("attribute name must be non-empty")
        self.name = name
        self.value = format_atomic(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.name, self.value))

    def __str__(self) -> str:
        # Attribute values flow into trigger action arguments (e.g.
        # ``DO notify(NEW_NODE/@name)``); the natural string form is the value.
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Attribute({self.name}={self.value!r})"


class Text(XmlNode):
    """A text node."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = format_atomic(value)

    def string_value(self) -> str:
        return self.value

    def copy(self) -> "Text":
        return Text(self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Text):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("text", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Text({self.value!r})"


class Element(XmlNode):
    """An XML element with ordered attributes and children."""

    __slots__ = ("name", "attributes", "children")

    def __init__(
        self,
        name: str,
        attributes: dict[str, Any] | Sequence[Attribute] | None = None,
        children: Iterable[Any] = (),
    ) -> None:
        if not name:
            raise XmlError("element name must be non-empty")
        self.name = name
        if attributes is None:
            self.attributes: list[Attribute] = []
        elif isinstance(attributes, dict):
            self.attributes = [Attribute(k, v) for k, v in attributes.items()]
        else:
            self.attributes = list(attributes)
        self.children: list[XmlNode] = []
        for child in children:
            self.append(child)

    # -- construction ----------------------------------------------------------

    def append(self, child: Any) -> None:
        """Append a child; fragments are spliced, atomics become text nodes."""
        node = as_node(child)
        if node is None:
            return
        if isinstance(node, Fragment):
            for item in node.items:
                self.append(item)
        else:
            self.children.append(node)

    def set_attribute(self, name: str, value: Any) -> None:
        """Set (or replace) an attribute."""
        for i, attribute in enumerate(self.attributes):
            if attribute.name == name:
                self.attributes[i] = Attribute(name, value)
                return
        self.attributes.append(Attribute(name, value))

    # -- access ------------------------------------------------------------------

    def attribute(self, name: str) -> str | None:
        """Return the value of an attribute, or ``None``."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute.value
        return None

    def child_elements(self, name: str | None = None) -> list["Element"]:
        """Child elements, optionally filtered by tag name (``None`` = all)."""
        return [
            child
            for child in self.children
            if isinstance(child, Element) and (name is None or child.name == name)
        ]

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self.children)

    def iter_descendants(self) -> Iterator[XmlNode]:
        yield self
        for child in self.children:
            yield from child.iter_descendants()

    def copy(self) -> "Element":
        clone = Element(self.name)
        clone.attributes = [Attribute(a.name, a.value) for a in self.attributes]
        clone.children = [child.copy() for child in self.children]
        return clone

    # -- value equality -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.attributes), tuple(self.children)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Element(<{self.name}> {len(self.children)} children)"


class DeferredElement(Element):
    """An element assembled only where something reads its structure.

    It holds ``shape`` — an element shape fixed when the constructor was
    lowered (:class:`repro.xmlmodel.shape.ElementShape`) — and ``values``,
    the constructor's slot values, evaluated when the element was built.
    ``name`` and :meth:`attribute` answer from those values; the first read
    of ``attributes`` or ``children`` (an XPath child or descendant step,
    :meth:`copy`, :meth:`iter_descendants`, equality, a mutation) assembles
    both lists through the shape, once.  :attr:`text` is the compact
    serialization written by the shape's template from the same values: a
    snapshot of the element as built, which later mutation does not change.
    """

    __slots__ = ("shape", "values", "_text")

    def __init__(self, shape: Any, values: Sequence[Any]) -> None:
        self.name = shape.name
        self.shape = shape
        self.values = values
        self._text: str | None = None

    def __getattr__(self, name: str) -> Any:
        # Reached only while the ``attributes`` / ``children`` slots are unset.
        if name != "attributes" and name != "children":
            raise AttributeError(name)
        self.attributes, self.children = self.shape.assemble(self.values)
        return object.__getattribute__(self, name)

    def attribute(self, name: str) -> str | None:
        return self.shape.attribute(self.values, name)

    @property
    def text(self) -> str:
        """The compact XML text of this element as built."""
        text = self._text
        if text is None:
            text = self._text = self.shape.render(self.values)
        return text

    def differs(self, other: "DeferredElement") -> bool:
        """``self != other`` (deep equality), assembling neither element
        where their shapes or texts already tell them apart.

        Another name or attribute list, or children on one side only
        (GROUPED-AGG's attributes-only compensated ``OLD_NODE`` against a
        ``NEW_NODE`` with children), decides without text.  Otherwise
        unequal texts decide: the text is a function of the tree.  Equal
        texts are confirmed by deep equality, since text does not show
        where one text node ends and the next begins (adjacent unlabelled
        atoms ``'a', 'b'`` and ``'ab', ''`` both write ``ab``).
        """
        shape, other_shape = self.shape, other.shape
        if shape.head != other_shape.head or (
            shape.empty(self.values) != other_shape.empty(other.values)
        ):
            return True
        if self.text != other.text:
            return True
        return not Element.__eq__(self, other)


class Fragment(XmlNode):
    """An ordered sequence of nodes (the result of ``aggXMLFrag``)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self.items: list[XmlNode] = []
        for item in items:
            node = as_node(item)
            if node is None:
                continue
            if isinstance(node, Fragment):
                self.items.extend(node.items)
            else:
                self.items.append(node)

    def string_value(self) -> str:
        return "".join(item.string_value() for item in self.items)

    def iter_descendants(self) -> Iterator[XmlNode]:
        for item in self.items:
            yield from item.iter_descendants()

    def copy(self) -> "Fragment":
        return Fragment([item.copy() for item in self.items])

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[XmlNode]:
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fragment):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(tuple(self.items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fragment({len(self.items)} items)"


class Document(XmlNode):
    """A document node wrapping a single root element."""

    __slots__ = ("root",)

    def __init__(self, root: Element) -> None:
        if not isinstance(root, Element):
            raise XmlError("document root must be an Element")
        self.root = root

    def string_value(self) -> str:
        return self.root.string_value()

    def iter_descendants(self) -> Iterator[XmlNode]:
        yield self
        yield from self.root.iter_descendants()

    def copy(self) -> "Document":
        return Document(self.root.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.root == other.root

    def __hash__(self) -> int:
        return hash(("document", self.root))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Document({self.root!r})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def as_node(value: Any) -> XmlNode | None:
    """Convert an arbitrary value into an XML node (``None`` stays ``None``)."""
    if value is None:
        return None
    if isinstance(value, XmlNode):
        return value
    if isinstance(value, Attribute):
        raise XmlError("attributes cannot appear as children")
    return Text(value)


def assemble_element(
    name: str, attributes: list[Attribute], children: list[XmlNode]
) -> Element:
    """An element that takes ``attributes`` and ``children`` as they are.

    Nothing is copied or converted: the caller hands over fresh lists of
    finished nodes (no fragments, no atomics, distinct attribute names) —
    what :meth:`repro.xmlmodel.shape.ElementShape.assemble` builds.  An
    empty name raises :class:`XmlError`, as ``Element`` does.
    """
    if not name:
        raise XmlError("element name must be non-empty")
    node = Element.__new__(Element)
    node.name = name
    node.attributes = attributes
    node.children = children
    return node


def element(name: str, attributes: dict[str, Any] | None = None, *children: Any) -> Element:
    """Shorthand constructor: ``element('product', {'name': 'CRT 15'}, child, ...)``."""
    return Element(name, attributes, children)


def text(value: Any) -> Text:
    """Shorthand text-node constructor."""
    return Text(value)


def fragment(*items: Any) -> Fragment:
    """Shorthand fragment constructor."""
    return Fragment(items)
