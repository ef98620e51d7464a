"""Serialization of XML nodes to text.

Used by examples, the baseline's node comparison, tests, and — through
:class:`EncodedPair` — by everything that writes an activation's nodes to
a log or a socket.  The output is deterministic (attribute order is the
insertion order recorded on the element), which is what makes the paper's
"string comparison in the tagger" (Appendix E.1) a sound way to detect
``OLD_NODE = NEW_NODE``.
"""

from __future__ import annotations

from repro.errors import XmlError
from repro.xmlmodel.node import Document, Element, Fragment, Text, XmlNode

__all__ = ["serialize", "escape_text", "escape_attribute", "EncodedPair"]

# ``&`` first: the other replacements introduce ampersands of their own.
_TEXT_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_ATTR_ESCAPES = (*_TEXT_ESCAPES, ('"', "&quot;"))


def escape_text(value: str) -> str:
    """Escape character data."""
    for character, entity in _TEXT_ESCAPES:
        if character in value:
            value = value.replace(character, entity)
    return value


def escape_attribute(value: str) -> str:
    """Escape an attribute value (double-quoted)."""
    for character, entity in _ATTR_ESCAPES:
        if character in value:
            value = value.replace(character, entity)
    return value


def serialize(node: XmlNode | None, *, indent: int | None = None) -> str:
    """Serialize a node (element, text, fragment, or document) to a string.

    ``indent=None`` produces compact output; an integer pretty-prints with
    that many spaces per nesting level.
    """
    if node is None:
        return ""
    parts: list[str] = []
    _serialize(node, parts, indent, 0)
    return "".join(parts)


def _serialize(node: XmlNode, parts: list[str], indent: int | None, depth: int) -> None:
    if isinstance(node, Document):
        _serialize(node.root, parts, indent, depth)
        return
    if isinstance(node, Fragment):
        for i, item in enumerate(node.items):
            if indent is not None and i > 0:
                parts.append("\n")
            _serialize(item, parts, indent, depth)
        return
    if isinstance(node, Text):
        parts.append(escape_text(node.value))
        return
    if isinstance(node, Element):
        _serialize_element(node, parts, indent, depth)
        return
    raise XmlError(f"cannot serialize {type(node).__name__}")  # pragma: no cover


def _serialize_element(node: Element, parts: list[str], indent: int | None, depth: int) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    parts.append(f"{pad}<{node.name}")
    for attribute in node.attributes:
        parts.append(f' {attribute.name}="{escape_attribute(attribute.value)}"')
    if not node.children:
        parts.append("/>")
        return
    parts.append(">")

    only_text = all(isinstance(child, Text) for child in node.children)
    if indent is None or only_text:
        for child in node.children:
            _serialize(child, parts, None, 0)
        parts.append(f"</{node.name}>")
        return

    for child in node.children:
        parts.append("\n")
        if isinstance(child, Text):
            parts.append(" " * (indent * (depth + 1)))
            parts.append(escape_text(child.value))
        else:
            _serialize(child, parts, indent, depth + 1)
    parts.append("\n")
    parts.append(f"{pad}</{node.name}>")


class EncodedPair:
    """Compact XML text of one (OLD_NODE, NEW_NODE) pair, serialized at most once.

    Section 5 computes each affected pair once per statement however many
    triggers watch the node; this holder extends that to the pair's *text*.
    It is created with the pair, handed by reference to every firing of the
    pair, and read by every encoder behind it (outbox record, TCP frame,
    WebSocket frame), so one statement serializes each distinct node once.

    The text lives here, not on the node: an :class:`Element` is mutable,
    a delivered pair is a read-only snapshot.  Filling is idempotent — two
    threads racing on an empty slot both store the same string — so readers
    on shard workers and event loops need no lock.
    """

    __slots__ = ("_old_node", "_new_node", "_old_text", "_new_text")

    def __init__(
        self,
        old_node: XmlNode | None,
        new_node: XmlNode | None,
        old_text: str | None = None,
        new_text: str | None = None,
    ) -> None:
        self._old_node = old_node
        self._new_node = new_node
        self._old_text = old_text
        self._new_text = new_text

    @property
    def old_text(self) -> str | None:
        """Serialized OLD_NODE (``None`` when the pair has no old node)."""
        text = self._old_text
        if text is None and self._old_node is not None:
            text = self._old_text = serialize(self._old_node)
        return text

    @property
    def new_text(self) -> str | None:
        """Serialized NEW_NODE (``None`` when the pair has no new node)."""
        text = self._new_text
        if text is None and self._new_node is not None:
            text = self._new_text = serialize(self._new_node)
        return text
