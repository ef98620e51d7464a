"""Bulk registration's skeleton split against the full per-text analysis.

:func:`repro.core.trigger.analyze` with a skeleton dict parses the first
text of each literal-free skeleton and lets every later text with the same
skeleton reuse that parameterized expression and shape, taking its own
constants from :func:`repro.xmlmodel.xpath.split_literals`.  The reference
is :func:`repro.xmlmodel.xpath.analyze_expression` on every text: fed a
stream of texts through one shared dict, the skeleton path must give the
same constants, the same parameterized AST and the same shape for each, and
raise the same error (type and message) where the reference raises.

Texts come from templates with literal holes, so one stream holds several
texts per skeleton (the reuse path) next to variants that differ only
outside their literals (which must not share).  The literals include quotes
holding the other quote, ``-5``, ``1.``, ``.5``, ``1.2.3`` and ``1e5``; the
names include ones that look like literals (``t1``, ``a-1``, ``e5``) and
Unicode letters and digits; the whitespace varies.

``REPRO_PROPERTY_EXAMPLES`` sets the example count (100 by default; CI's
stress block runs 1 000).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.trigger import analyze
from repro.errors import XPathError
from repro.xmlmodel.xpath import analyze_expression, split_literals

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "100"))

_STRINGS = ["'CRT 15'", '"LCD 19"', "'it\"s'", '"it\'s"', "''", '""', "'a, b'"]
_NUMBERS = ["5", "-5", "1.", ".5", "1e5", "007", "12.50", "٣"]
#: Literal-looking text that does not lex as one literal.
_BROKEN = ["1.2.3", "1²", "'unterminated", "'", '"']
_NAMES = ["name", "t1", "a-1", "e5", "price", "é", "名前", "x٣", "_"]
_BAD_NAMES = ["²", "½"]
_SPACES = ["", " ", "  ", "\t", "\n", "\r\n"]
_OPERATORS = ["=", "!=", "<", "<=", ">", ">=", "eq", "+", "-", "*", "div", "and", "or"]

#: Template pieces: fixed text with ``{}`` holes for literals.
_TEMPLATES = [
    "OLD_NODE/@{name} {op} {}",
    "{} {op} NEW_NODE/{name}",
    "count(NEW_NODE/{name}[./price {op} {}]) >= {}",
    "NEW_NODE/{name}[@{name} {op} {}]/price {op} {}",
    "contains(OLD_NODE/@{name}, {})",
    "concat({}, {}, {})",
    "NEW_NODE/child::@{}",
    "NEW_NODE/child::{name} {op} {}",
    "-{} {op} {}",
    "({}) {op} ({})",
    "{}{}",
    "{name}{}",
    "$ {name} {op} {}",
    "OLD_NODE//{name} {op} {}",
]


@st.composite
def template(draw) -> str:
    """A template with ``{}`` literal holes; names, operators and spaces fixed."""
    text = draw(st.sampled_from(_TEMPLATES))
    names = st.sampled_from(_NAMES) | st.sampled_from(_NAMES + _BAD_NAMES)
    while "{name}" in text:
        text = text.replace("{name}", draw(names), 1)
    while "{op}" in text:
        text = text.replace("{op}", draw(st.sampled_from(_OPERATORS)), 1)
    space = draw(st.sampled_from(_SPACES))
    return text.replace(" ", space)


@st.composite
def text_streams(draw) -> list[str]:
    """Several instantiations of one or two templates, shuffled together.

    Each hole mostly keeps one literal kind across a template's texts (so
    they share a skeleton) and now and then takes any literal, broken ones
    included.
    """
    templates = draw(st.lists(template(), min_size=1, max_size=2))
    texts = []
    for shape in templates:
        kinds = [
            draw(st.sampled_from([_STRINGS, _NUMBERS])) for _ in range(shape.count("{}"))
        ]
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            literals = [
                draw(st.sampled_from(kind) | st.sampled_from(_STRINGS + _NUMBERS + _BROKEN))
                if draw(st.integers(0, 4)) == 0
                else draw(st.sampled_from(kind))
                for kind in kinds
            ]
            texts.append(shape.format(*literals))
    return draw(st.permutations(texts))


def _reference(text: str):
    try:
        parameterized, constants, shape = analyze_expression(text)
    except Exception as error:  # noqa: BLE001 - the error itself is compared
        return ("error", type(error), str(error))
    return ("ok", parameterized, tuple(constants), shape)


def _skeleton_path(text: str, skeletons: dict):
    try:
        analysis = analyze(text, skeletons)
    except Exception as error:  # noqa: BLE001 - the error itself is compared
        return ("error", type(error), str(error))
    return ("ok", analysis.parameterized.ast, analysis.constants, analysis.shape)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(texts=text_streams())
@example(texts=["OLD_NODE/@name = 'CRT 15'", "OLD_NODE/@name = 'LCD 19'"])
@example(texts=["OLD_NODE/@name = 'a'", "OLD_NODE/@name = 5", "OLD_NODE/@name = 1.2.3"])
@example(texts=["NEW_NODE/child::@'a'", "NEW_NODE/child::@'b'"])
@example(texts=["x = 1", "x = .5", "x = 1.", "x = 1e5", "t1 = 1", "a-1 = 1"])
@example(texts=["OLD_NODE/@a = '?'", "OLD_NODE/@a = ?", "concat('a', 'b')", "concat('a, b')"])
def test_skeleton_split_matches_full_analysis(texts):
    skeletons: dict = {}
    for text in texts:
        assert _skeleton_path(text, skeletons) == _reference(text), text


def test_same_skeleton_shares_one_parameterized_expression():
    skeletons: dict = {}
    first = analyze("OLD_NODE/@name = 'CRT 15'", skeletons)
    second = analyze("OLD_NODE/@name = 'LCD 19'", skeletons)
    assert second.parameterized is first.parameterized
    assert second.shape is first.shape
    assert second.constants == ("LCD 19",)
    assert len(skeletons) == 1


def test_split_literals_keeps_the_text_outside_literals():
    skeleton, constants = split_literals("count(t1[@a-1 = \"it's\"]) >= -5.")
    assert skeleton == ("count(t1[@a-1 = ", "string", "]) >= -", "number", "")
    assert constants == ("it's", 5.0)
    # A literal holding what another text has outside its literals does not
    # make the two skeletons equal.
    assert split_literals("f('a, b')")[0] != split_literals("f('a', 'b')")[0]
    assert split_literals("x = 1e5") == (("x = ", "number", "e5"), (1,))
    assert split_literals("x = 1.2.3") is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("OLD_NODE/@a = 'x", "unterminated string literal at offset 14"),
        ("OLD_NODE/@a = ½", "unexpected character '½' at offset 14"),
        ("OLD_NODE/@a ! 1", "unexpected character '!' at offset 12"),
        ("OLD_NODE/@a = 1.2.3", "invalid number '1.2.3' at offset 14"),
        ("OLD_NODE/@a = 1²", "unexpected character '²' at offset 15"),
    ],
)
def test_tokenizer_errors_name_their_offset(text, message):
    with pytest.raises(XPathError) as raised:
        analyze(text, {})
    assert str(raised.value) == message
