"""The new ``parse_xml`` against the parser it replaced.

:func:`reference_parse_xml` is the previous, character-stepping
recursive-descent parser, kept here (and only here) as the reference: on
every generated document — well-formed or not — the scanning parser must
build an equal tree or raise the same error with the same message, offset
and line included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XmlParseError
from repro.xmlmodel import parse_xml
from repro.xmlmodel.node import Element, Fragment, Text, XmlNode

# ---------------------------------------------------------------- the reference


_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Parser:
    """Recursive-descent parser over an XML string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)

    # -- low-level helpers ------------------------------------------------------

    def _error(self, message: str) -> XmlParseError:
        line = self.source.count("\n", 0, self.pos) + 1
        return XmlParseError(f"{message} (offset {self.pos}, line {line})")

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < self.length else ""

    def _startswith(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def _expect(self, token: str) -> None:
        if not self._startswith(token):
            raise self._error(f"expected {token!r}")
        self.pos += len(token)

    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def _read_name(self) -> str:
        start = self.pos
        if self._peek() not in _NAME_START:
            raise self._error("expected a name")
        self.pos += 1
        while self._peek() in _NAME_CHARS:
            self.pos += 1
        return self.source[start : self.pos]

    def _decode_entities(self, value: str) -> str:
        if "&" not in value:
            return value
        out: list[str] = []
        i = 0
        while i < len(value):
            ch = value[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = value.find(";", i + 1)
            if end == -1:
                raise XmlParseError(f"unterminated entity reference in {value!r}")
            entity = value[i + 1 : end]
            if entity.startswith("#x") or entity.startswith("#X"):
                out.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                out.append(chr(int(entity[1:])))
            elif entity in _ENTITIES:
                out.append(_ENTITIES[entity])
            else:
                raise XmlParseError(f"unknown entity &{entity};")
            i = end + 1
        return "".join(out)

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> XmlNode:
        nodes = self._parse_content(top_level=True)
        elements = [node for node in nodes if isinstance(node, Element)]
        if not elements:
            raise self._error("document contains no element")
        if len(elements) == 1 and all(
            isinstance(node, Element) or not node.string_value().strip() for node in nodes
        ):
            return elements[0]
        return Fragment([n for n in nodes if not (isinstance(n, Text) and not n.value.strip())])

    def _parse_content(self, top_level: bool = False) -> list[XmlNode]:
        nodes: list[XmlNode] = []
        text_start = self.pos
        while self.pos < self.length:
            if self._peek() == "<":
                if self.pos > text_start:
                    raw = self.source[text_start : self.pos]
                    if raw:
                        nodes.append(Text(self._decode_entities(raw)))
                if self._startswith("</"):
                    if top_level:
                        raise self._error("unexpected closing tag")
                    return nodes
                if self._startswith("<!--"):
                    self._skip_comment()
                elif self._startswith("<![CDATA["):
                    nodes.append(self._parse_cdata())
                elif self._startswith("<?"):
                    self._skip_processing_instruction()
                elif self._startswith("<!"):
                    self._skip_doctype()
                else:
                    nodes.append(self._parse_element())
                text_start = self.pos
            else:
                self.pos += 1
        if self.pos > text_start:
            raw = self.source[text_start : self.pos]
            if raw:
                nodes.append(Text(self._decode_entities(raw)))
        if not top_level:
            raise self._error("unexpected end of input inside an element")
        return nodes

    def _parse_element(self) -> Element:
        self._expect("<")
        name = self._read_name()
        attributes: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._startswith("/>"):
                self.pos += 2
                return Element(name, attributes)
            if self._peek() == ">":
                self.pos += 1
                break
            attr_name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error("attribute value must be quoted")
            self.pos += 1
            end = self.source.find(quote, self.pos)
            if end == -1:
                raise self._error("unterminated attribute value")
            attributes[attr_name] = self._decode_entities(self.source[self.pos : end])
            self.pos = end + 1

        children = self._parse_content()
        self._expect("</")
        closing = self._read_name()
        if closing != name:
            raise self._error(f"mismatched closing tag </{closing}> for <{name}>")
        self._skip_whitespace()
        self._expect(">")
        element = Element(name, attributes)
        for child in children:
            element.append(child)
        return element

    def _parse_cdata(self) -> Text:
        self._expect("<![CDATA[")
        end = self.source.find("]]>", self.pos)
        if end == -1:
            raise self._error("unterminated CDATA section")
        value = self.source[self.pos : end]
        self.pos = end + 3
        return Text(value)

    def _skip_comment(self) -> None:
        self._expect("<!--")
        end = self.source.find("-->", self.pos)
        if end == -1:
            raise self._error("unterminated comment")
        self.pos = end + 3

    def _skip_processing_instruction(self) -> None:
        self._expect("<?")
        end = self.source.find("?>", self.pos)
        if end == -1:
            raise self._error("unterminated processing instruction")
        self.pos = end + 2

    def _skip_doctype(self) -> None:
        self._expect("<!")
        depth = 1
        while self.pos < self.length and depth:
            ch = self.source[self.pos]
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            self.pos += 1
        if depth:
            raise self._error("unterminated declaration")


def reference_parse_xml(source: str) -> XmlNode:
    """Parse XML text into an :class:`Element` (or :class:`Fragment`)."""
    if not source or not source.strip():
        raise XmlParseError("empty document")
    return _Parser(source).parse()


# ---------------------------------------------------------------- the comparison


def _shape(node: XmlNode):
    """A tree as nested tuples — exact, down to empty text nodes."""
    if isinstance(node, Text):
        return ("text", node.value)
    if isinstance(node, Fragment):
        return ("fragment", [_shape(item) for item in node.items])
    assert isinstance(node, Element)
    return (
        "element", node.name,
        [(a.name, a.value) for a in node.attributes],
        [_shape(child) for child in node.children],
    )


def _outcome(parse, source: str):
    """What parsing ``source`` comes to: a tree, or the error it raises."""
    try:
        return "tree", _shape(parse(source))
    except (XmlParseError, ValueError, OverflowError) as error:
        # Numeric references outside what int()/chr() take surface as the
        # builtin's error in both parsers; they must agree on those too.
        return type(error).__name__, str(error)


def assert_same(source: str) -> None:
    assert _outcome(parse_xml, source) == _outcome(reference_parse_xml, source), source


# ---------------------------------------------------------------- the documents

_NAMES = ["a", "b", "item", "x:y", "_u", "A1", "k-l", "m.n", ":c"]
_TEXTS = [
    "", "t", "some text", " ", "\n  ", "1 &amp; 2", "&lt;tag&gt;", "&quot;q&apos;", "&#65;&#x42;",
    "&#x1F600;", "café", "a\nb\nc", "]]", "-->", "?>",
]
_BROKEN_TEXTS = ["&bogus;", "&amp", "&#xZZ;", "&#;", "&#99999999999;", "&;", "&#-1;"]
_SPACES = ["", "", " ", "\n", " \t", "\r\n "]


def _document(rng: random.Random, depth: int = 0, broken: bool = False) -> str:
    """One element (with everything the parser accepts around and in it)."""
    texts = _TEXTS + (_BROKEN_TEXTS if broken else [])
    name = rng.choice(_NAMES)
    parts = ["<", name]
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        quote = rng.choice("\"'")
        value = rng.choice(texts).replace(quote, "")
        parts += [
            rng.choice(_SPACES) or " ", rng.choice(_NAMES), rng.choice(_SPACES), "=",
            rng.choice(_SPACES), quote, value, quote,
        ]
    parts.append(rng.choice(_SPACES))
    if rng.random() < 0.2:
        parts.append("/>")
        return "".join(parts)
    parts.append(">")
    for _ in range(rng.choice((0, 1, 1, 2, 4))):
        kind = rng.random()
        if kind < 0.35 and depth < 4:
            parts.append(_document(rng, depth + 1, broken))
        elif kind < 0.7:
            parts.append(rng.choice(texts))
        elif kind < 0.8:
            parts += ["<!--", rng.choice(["", " c ", "<x>", "--"]), "-->"]
        elif kind < 0.9:
            parts += ["<![CDATA[", rng.choice(["", "a < b", "&amp;", "<x/>", "]]"]), "]]>"]
        else:
            parts += ["<?", rng.choice(["pi", 'xml v="1"', ""]), "?>"]
    parts += ["</", name, rng.choice(_SPACES), ">"]
    return "".join(parts)


def _wrapped(rng: random.Random, broken: bool = False) -> str:
    """A document: prolog, one or several top-level nodes, trailing matter."""
    parts = [rng.choice(["", "", "<?xml version='1.0'?>", "\n", "<!DOCTYPE d [<!ENTITY e 'v'>]>"])]
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        parts.append(_document(rng, broken=broken))
        parts.append(rng.choice(["", "", "\n", " tail ", "<!-- end -->", "<![CDATA[z]]>"]))
    return "".join(parts)


_MALFORMED = [
    "", "   ", "\n", "text only", "<!-- only -->", "<?only?>", "<", "<a", "<a ", "<a/", "<a>",
    "<a><b>", "<a></b>", "<a><b></a></b>", "</a>", "x</a>", "<a/></a>", "<a></a", "<a></a x>",
    "<a></ a>", "<a></>", "< a/>", "<1a/>", "<a b>", "<a b=>", "<a b=1>", "<a b='1>", '<a b="1>',
    "<a b='1' c>", "<a b = '1'c='2'/>", "<ab='1'/>", "<a b='1'/ >", "<a / >", "<a\n/>",
    "<a>&bogus;</a>", "<a>&amp</a>", "<a b='&bogus;'/>", "<a b='&amp'/>", "<a b='&bogus;' c=>",
    "<a>&bogus;<", "<a><!-- open", "<a><![CDATA[ open", "<a><? open", "<!DOCTYPE a [ <", "<!",
    "<!>", "<!a<b>c>d><r/>", "<a><!b></a>", "<a>\n<b>\n</c>", "<a>\n\n<b \n x></a>",
    "<a>t</a><b>u</b>", " <a/> ", "<a/>x", "<a/><![CDATA[]]>", "<a><![CDATA[]]></a>",
    "<a>&#xZZ;</a>", "<a>&#;</a>", "<a>&#99999999999;</a>", "<a>&#x110000;</a>",
    "<a b='x' b='y'/>", "<a b='1'></a><", "<a>café</a>", "<café/>", "<a café='1'/>",
    "<a> </a>", "<a b='1'/>", "<a\x0cb='1'/>",
]


class TestSameAsTheReferenceParser:
    @pytest.mark.parametrize("source", _MALFORMED)
    def test_curated_cases(self, source):
        assert_same(source)

    def test_every_curated_error_names_its_offset(self):
        located = 0
        for source in _MALFORMED:
            kind, message = _outcome(parse_xml, source)
            if kind == "XmlParseError" and "(offset " in message:
                located += 1
        assert located >= 35

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_well_formed_documents(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            source = _wrapped(rng)
            assert_same(source)
            assert _outcome(parse_xml, source)[0] == "tree"

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_documents_with_bad_references(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(100):
            assert_same(_wrapped(rng, broken=True))

    @pytest.mark.parametrize("seed", range(20))
    def test_every_truncation_and_single_character_damage(self, seed):
        """Cut a document at every offset; drop, double and swap characters."""
        rng = random.Random(2000 + seed)
        source = _wrapped(rng)
        for cut in range(len(source) + 1):
            assert_same(source[:cut])
            assert_same(source[cut:])
        for _ in range(300):
            at = rng.randrange(len(source))
            damage = rng.choice("<>/=\"'&;! -?[]a\n")
            assert_same(source[:at] + source[at + 1:])
            assert_same(source[:at] + damage + source[at:])
            assert_same(source[:at] + damage + source[at + 1:])

    @given(st.text(alphabet="<>/=\"'&;!?-[]ab: \n#x1CDAT", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_markup_soup(self, source):
        assert_same(source)

    def test_deep_nesting_needs_no_recursion(self):
        depth = 5000
        node = parse_xml("<a>" * depth + "</a>" * depth)
        for _ in range(depth - 1):
            (node,) = node.children
        assert node.children == []
