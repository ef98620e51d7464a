"""Parser for the XML trigger specification language (Section 2.2).

Syntax (after Bonifati et al. [2], as restricted by the paper)::

    CREATE TRIGGER Name AFTER Event
    ON view('viewname')/path/steps
    [WHERE Condition]
    DO action(arg1, arg2, ...)

* ``Event`` is ``INSERT``, ``UPDATE``, or ``DELETE``;
* ``Condition`` is a Boolean XPath/XQuery expression over ``OLD_NODE`` and
  ``NEW_NODE``;
* the ``Action`` is a call to an external function registered with the
  service; its parameters are XPath/XQuery expressions over the same
  variables.

Keywords are case-insensitive; string literals may use single or double
quotes.  The parser is deliberately independent of the XPath parser so that a
malformed condition produces an error pointing at the condition, not at the
trigger statement structure.
"""

from __future__ import annotations

import re

from repro.errors import TriggerSyntaxError
from repro.relational.triggers import TriggerEvent
from repro.core.trigger import TriggerSpec

__all__ = ["parse_trigger"]

_CREATE_RE = re.compile(
    r"^\s*CREATE\s+TRIGGER\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s+AFTER\s+(?P<event>[A-Za-z]+)\s+ON\s+",
    re.IGNORECASE | re.DOTALL,
)
_VIEW_RE = re.compile(
    r"^view\s*\(\s*(?P<quote>['\"])(?P<view>[^'\"]+)(?P=quote)\s*\)\s*(?P<path>/[^\s]*)",
    re.IGNORECASE,
)


# What the clause scan looks at: a quoted run (to its closing quote, or to
# the end), a parenthesis, or a whole-word WHERE / DO.  Everything else is
# skipped by ``finditer`` in C.
_SCAN_RE = re.compile(
    r"""'[^']*'?|"[^"]*"?|(?P<open>\()|(?P<close>\))|\b(?P<keyword>WHERE|DO)\b""",
    re.IGNORECASE,
)
_PATH_STEP_RE = re.compile(r"[A-Za-z_][\w\-\.]*")
_ACTION_RE = re.compile(r"^(?P<fn>[A-Za-z_][\w\.]*)\s*\((?P<args>.*)\)\s*$", re.DOTALL)


def _find_clauses(text: str) -> tuple[int, int]:
    """Offsets of the WHERE and DO keywords outside quotes and parentheses.

    DO is the first top-level ``DO`` (-1 if none); WHERE is the first
    top-level ``WHERE`` before it (-1 if none).  One scan, stopping at DO.
    """
    depth = 0
    where = -1
    for match in _SCAN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
        elif kind == "keyword" and depth == 0:
            if match.group().upper() == "DO":
                return where, match.start()
            if where == -1:
                where = match.start()
    return where, -1


def _split_arguments(text: str) -> list[str]:
    """Split a comma-separated argument list, respecting quotes and parens."""
    arguments: list[str] = []
    depth = 0
    quote: str | None = None
    current: list[str] = []
    for ch in text:
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            current.append(ch)
            continue
        if ch == "(":
            depth += 1
            current.append(ch)
            continue
        if ch == ")":
            depth -= 1
            current.append(ch)
            continue
        if ch == "," and depth == 0:
            arguments.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        arguments.append(tail)
    return arguments


def parse_trigger(text: str) -> TriggerSpec:
    """Parse a ``CREATE TRIGGER`` statement into a :class:`TriggerSpec`."""
    if not text or not text.strip():
        raise TriggerSyntaxError("empty trigger definition")
    source = text.strip()

    match = _CREATE_RE.match(source)
    if not match:
        raise TriggerSyntaxError(
            "expected 'CREATE TRIGGER <name> AFTER <event> ON ...'"
        )
    name = match.group("name")
    try:
        event = TriggerEvent.parse(match.group("event"))
    except ValueError as exc:
        raise TriggerSyntaxError(str(exc)) from exc

    rest = source[match.end():].strip()
    view_match = _VIEW_RE.match(rest)
    if not view_match:
        raise TriggerSyntaxError(
            f"trigger {name!r}: expected ON view('<name>')/<path>, got {rest[:60]!r}"
        )
    view = view_match.group("view")
    raw_path = view_match.group("path")
    if "//" in raw_path:
        raise TriggerSyntaxError(
            f"trigger {name!r}: descendant steps ('//') are not supported in the "
            "trigger Path (only child element steps)"
        )
    path_steps = tuple(step for step in raw_path.strip("/").split("/") if step)
    if not path_steps:
        raise TriggerSyntaxError(f"trigger {name!r}: the monitored path must name an element")
    for step in path_steps:
        if not _PATH_STEP_RE.fullmatch(step):
            raise TriggerSyntaxError(
                f"trigger {name!r}: unsupported path step {step!r} "
                "(only child element steps are supported in the trigger Path)"
            )

    rest = rest[view_match.end():]

    where_index, do_index = _find_clauses(rest)
    if do_index == -1:
        raise TriggerSyntaxError(f"trigger {name!r}: missing DO <action>(...) clause")

    condition: str | None = None
    if where_index != -1:
        condition = rest[where_index + len("WHERE"): do_index].strip()
        if not condition:
            raise TriggerSyntaxError(f"trigger {name!r}: empty WHERE condition")

    action_text = rest[do_index + len("DO"):].strip().rstrip(";").strip()
    action_match = _ACTION_RE.match(action_text)
    if not action_match:
        raise TriggerSyntaxError(
            f"trigger {name!r}: the action must be a function call, got {action_text!r}"
        )
    action_name = action_match.group("fn")
    argument_text = action_match.group("args").strip()
    action_args = tuple(_split_arguments(argument_text)) if argument_text else ()

    if event is TriggerEvent.INSERT and _mentions(condition, action_args, "OLD_NODE"):
        raise TriggerSyntaxError(
            f"trigger {name!r}: OLD_NODE may not be referenced by an INSERT trigger"
        )
    if event is TriggerEvent.DELETE and _mentions(condition, action_args, "NEW_NODE"):
        raise TriggerSyntaxError(
            f"trigger {name!r}: NEW_NODE may not be referenced by a DELETE trigger"
        )

    return TriggerSpec(
        name=name,
        event=event,
        view=view,
        path=path_steps,
        condition=condition,
        action_name=action_name,
        action_args=action_args,
        source=source,
    )


def _mentions(condition: str | None, args: tuple[str, ...], variable: str) -> bool:
    texts = [condition or ""] + list(args)
    return any(variable in text for text in texts)
