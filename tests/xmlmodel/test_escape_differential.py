"""``escape_text`` / ``escape_attribute`` against the per-character escapers
they replaced.

The reference functions below map every character through a table; the
library's replace-only-what-is-present versions must return byte-identical
strings on every input — all of ``& < > "``, entity-looking text, non-ASCII
and the empty string included.
"""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from repro.xmlmodel.serialize import escape_attribute, escape_text

_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTRIBUTE = {**_TEXT, '"': "&quot;"}


def reference_escape_text(value: str) -> str:
    return "".join(_TEXT.get(ch, ch) for ch in value)


def reference_escape_attribute(value: str) -> str:
    return "".join(_ATTRIBUTE.get(ch, ch) for ch in value)


_values = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('&<>"\'; amplgtquot#x')),
        st.characters(),
    ),
    max_size=40,
)


@given(value=_values)
@example(value="")
@example(value='&<>"')
@example(value="&amp;&lt;&gt;&quot;")
@example(value="café ≤ \U0001f600 <b>&</b>")
def test_escapes_match_the_per_character_reference(value):
    assert escape_text(value) == reference_escape_text(value)
    assert escape_attribute(value) == reference_escape_attribute(value)
