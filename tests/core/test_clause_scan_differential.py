"""The trigger parser's clause scan against the per-character scan it replaced.

:func:`reference_find_keyword` is the previous ``_find_keyword`` loop, kept
here (and only here) as the reference: it walks the statement one character
at a time, tracking quotes and parenthesis depth, and tries a whole-word,
case-insensitive keyword match at every top-level position.
``repro.core.language._find_clauses`` does the same with one regex scan,
returning the first top-level DO and the first top-level WHERE before it;
on every generated text the two must agree.
"""

from __future__ import annotations

import os
import re

from hypothesis import example, given, settings, strategies as st

from repro.core.language import _find_clauses

_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "100"))


def reference_find_keyword(text: str, keyword: str) -> int:
    """Find a top-level keyword (outside quotes and parentheses), or -1."""
    pattern = re.compile(rf"\b{keyword}\b", re.IGNORECASE)
    depth = 0
    quote: str | None = None
    i = 0
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            i += 1
            continue
        if ch == "(":
            depth += 1
            i += 1
            continue
        if ch == ")":
            depth -= 1
            i += 1
            continue
        if depth == 0:
            match = pattern.match(text, i)
            if match:
                return i
        i += 1
    return -1


def reference_clauses(text: str) -> tuple[int, int]:
    """What ``parse_trigger`` took from two reference scans."""
    where = reference_find_keyword(text, "WHERE")
    do = reference_find_keyword(text, "DO")
    if where != -1 and do != -1 and where > do:
        where = -1
    return where, do


_PIECES = [
    "WHERE", "where", "Where", "DO", "do", "Do", "DOUBLE", "WHEREAS", "undo",
    "_DO", "DO_", "DO1", "ÉDO", "(", ")", "((", "))", "'", '"', "'WHERE'",
    '"DO"', "'it\"s DO'", '"it\'s WHERE"', " ", "  ", "\t", "\n", ",", "=",
    "OLD_NODE/@name", "'CRT 15'", "count(NEW_NODE/vendor)", "f(a, b)",
    "notify(NEW_NODE)", ";",
]


@settings(max_examples=_EXAMPLES, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=14))
@example(pieces=[" ", "WHERE", " ", "f(", "DO", ")", " ", "DO", " ", "g()"])
@example(pieces=["WHERE", " ", "'", "DO", "'", " ", "DO", " ", "h(x)"])
@example(pieces=[")", " ", "WHERE", " ", "x", " ", "DO", " ", "a()"])
@example(pieces=["DOUBLE", " ", "WHEREAS", " ", "do", " ", "where"])
@example(pieces=[" ", "DO", " ", "f()", " ", "WHERE", " ", "x"])
def test_clause_scan_matches_the_per_character_reference(pieces):
    text = "".join(pieces)
    assert _find_clauses(text) == reference_clauses(text), repr(text)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(list("WHEREDOwheredo()'\" _x1é")), max_size=30))
def test_clause_scan_matches_on_character_soup(text):
    assert _find_clauses(text) == reference_clauses(text), repr(text)
