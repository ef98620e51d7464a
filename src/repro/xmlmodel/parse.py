"""A small, dependency-free XML parser.

The system never parses XML documents from the wild (views are virtual,
nodes are constructed by the tagger), but every activation that crosses a
socket or comes back from the outbox is read into the node model here, and
so are the literals of tests and examples.  The parser supports the subset
the serializer emits: elements, attributes (double- or single-quoted),
character data, entity references for ``& < > " '``, comments, and XML
declarations/processing instructions (which are skipped).  CDATA sections
are also accepted.

It scans instead of stepping through characters: ``str.find`` jumps from one
``<`` to the next and one compiled regex (:data:`_BARE_TAG`) takes a tag
without attributes — nearly every tag of a serialized view node — in one
match.  A tag with attributes, and a tag that is malformed, is walked piece
by piece (:func:`_start_tag`, :func:`_end_tag`), which is also what finds
the offset an :class:`~repro.errors.XmlParseError` reports.
"""

from __future__ import annotations

import re

from repro.errors import XmlParseError
from repro.xmlmodel.node import Element, Fragment, Text, XmlNode

__all__ = ["parse_xml"]

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# Possessive quantifiers: a name is never given back a character at a time.
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*+"
_SPACE = r"[ \t\r\n]*+"

#: A start tag ``(name, "")``, empty-element tag ``(name, "/")`` or end tag
#: ``(None, None, name)`` that carries no attributes.
_BARE_TAG = re.compile(rf"<(?:({_NAME}){_SPACE}(/?)>|/({_NAME}){_SPACE}>)").match
_NAME_AT = re.compile(_NAME).match
_SPACE_AT = re.compile(_SPACE).match
_ANGLE_BRACKETS = re.compile("[<>]").finditer


def _error(message: str, source: str, offset: int) -> XmlParseError:
    line = source.count("\n", 0, offset) + 1
    return XmlParseError(f"{message} (offset {offset}, line {line})")


def _decode_entities(value: str) -> str:
    """``value`` with its entity and character references replaced."""
    if "&" not in value:
        return value
    out: list[str] = []
    start = 0
    while True:
        amp = value.find("&", start)
        if amp == -1:
            out.append(value[start:])
            return "".join(out)
        out.append(value[start:amp])
        end = value.find(";", amp + 1)
        if end == -1:
            raise XmlParseError(f"unterminated entity reference in {value!r}")
        entity = value[amp + 1 : end]
        if entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
        else:
            raise XmlParseError(f"unknown entity &{entity};")
        start = end + 1


def _start_tag(source: str, at: int) -> tuple[str, dict[str, str], str, int]:
    """Walk the start tag whose ``<`` is at ``at``.

    Returns ``(name, attributes, "/" for an empty-element tag, offset after
    the tag)`` or raises at the first piece that is not where it must be.
    """
    name = _NAME_AT(source, at + 1)
    if name is None:
        raise _error("expected a name", source, at + 1)
    attributes: dict[str, str] = {}
    pos = name.end()
    while True:
        pos = _SPACE_AT(source, pos).end()
        if source.startswith("/>", pos):
            return name.group(), attributes, "/", pos + 2
        if source.startswith(">", pos):
            return name.group(), attributes, "", pos + 1
        attribute = _NAME_AT(source, pos)
        if attribute is None:
            raise _error("expected a name", source, pos)
        pos = _SPACE_AT(source, attribute.end()).end()
        if not source.startswith("=", pos):
            raise _error("expected '='", source, pos)
        pos = _SPACE_AT(source, pos + 1).end()
        quote = source[pos : pos + 1]
        if quote not in ("'", '"'):
            raise _error("attribute value must be quoted", source, pos)
        end = source.find(quote, pos + 1)
        if end == -1:
            raise _error("unterminated attribute value", source, pos + 1)
        attributes[attribute.group()] = _decode_entities(source[pos + 1 : end])
        pos = end + 1


def _end_tag(source: str, at: int, name: str) -> int:
    """Walk the end tag at ``at``, which must close ``name``; offset after it."""
    closing = _NAME_AT(source, at + 2)
    if closing is None:
        raise _error("expected a name", source, at + 2)
    if closing.group() != name:
        raise _error(
            f"mismatched closing tag </{closing.group()}> for <{name}>", source, closing.end()
        )
    pos = _SPACE_AT(source, closing.end()).end()
    if not source.startswith(">", pos):
        raise _error("expected '>'", source, pos)
    return pos + 1


def _skip_declaration(source: str, at: int) -> int:
    """Offset after the ``<!...>`` declaration at ``at`` (brackets nest)."""
    depth = 1
    for bracket in _ANGLE_BRACKETS(source, at + 2):
        depth += 1 if bracket.group() == "<" else -1
        if not depth:
            return bracket.end()
    raise _error("unterminated declaration", source, len(source))


def _parse_content(source: str) -> list[XmlNode]:
    """The top-level nodes of ``source``; comments and declarations skipped."""
    find = source.find
    startswith = source.startswith
    nodes: list[XmlNode] = []
    #: Where the next node goes: ``nodes``, or the innermost open element.
    children = nodes
    #: Per open element, its name and the list the element itself went into.
    open_elements: list[tuple[str, list[XmlNode]]] = []
    pos = 0
    while True:
        at = find("<", pos)
        if at == -1:
            break
        if at > pos:
            children.append(Text(_decode_entities(source[pos:at])))
        tag = _BARE_TAG(source, at)
        if startswith("</", at):
            if not open_elements:
                raise _error("unexpected closing tag", source, at)
            name, children = open_elements.pop()
            if tag is not None and tag.group(3) == name:
                pos = tag.end()
            else:
                pos = _end_tag(source, at, name)
            continue
        if tag is not None:
            name, empty = tag.group(1, 2)
            element = Element(name)
            pos = tag.end()
        elif startswith("<!--", at):
            end = find("-->", at + 4)
            if end == -1:
                raise _error("unterminated comment", source, at + 4)
            pos = end + 3
            continue
        elif startswith("<![CDATA[", at):
            end = find("]]>", at + 9)
            if end == -1:
                raise _error("unterminated CDATA section", source, at + 9)
            children.append(Text(source[at + 9 : end]))
            pos = end + 3
            continue
        elif startswith("<?", at):
            end = find("?>", at + 2)
            if end == -1:
                raise _error("unterminated processing instruction", source, at + 2)
            pos = end + 2
            continue
        elif startswith("<!", at):
            pos = _skip_declaration(source, at)
            continue
        else:
            name, attributes, empty, pos = _start_tag(source, at)
            element = Element(name, attributes)
        children.append(element)
        if not empty:
            open_elements.append((name, children))
            children = element.children
    if pos < len(source):
        children.append(Text(_decode_entities(source[pos:])))
    if open_elements:
        raise _error("unexpected end of input inside an element", source, len(source))
    return nodes


def parse_xml(source: str) -> XmlNode:
    """Parse XML text into an :class:`Element` (or :class:`Fragment`)."""
    if not source or not source.strip():
        raise XmlParseError("empty document")
    nodes = _parse_content(source)
    elements = [node for node in nodes if isinstance(node, Element)]
    if not elements:
        raise _error("document contains no element", source, len(source))
    if len(elements) == 1 and all(
        isinstance(node, Element) or not node.string_value().strip() for node in nodes
    ):
        return elements[0]
    return Fragment([n for n in nodes if not (isinstance(n, Text) and not n.value.strip())])
