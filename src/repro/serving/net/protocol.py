"""The framed wire protocol spoken between :mod:`repro.serving.net` endpoints.

One frame carries one message::

    ┌────────────┬────────────┬─────────────────────────┐
    │ length: u32│ crc32: u32 │ payload (length bytes)  │
    │ big-endian │ of payload │ codec-encoded dict      │
    └────────────┴────────────┴─────────────────────────┘

The framing (and the payload encoding) is the durability layer's
(:mod:`repro.persist.wal` / :mod:`repro.persist.codec`): length- and
CRC-guarded frames around self-describing tag-encoded values, so a frame can
be inspected with a hex dump and decoding never executes code.  The payload
of every frame is a dict with a ``"type"`` key; ``docs/networking.md`` holds
the full message catalog.

Hardening rules enforced by :func:`read_frame` (pinned by
``tests/serving/test_net_protocol_fuzz.py``):

* a declared length of zero, or beyond ``max_frame``, is a
  :class:`~repro.errors.ProtocolError` *before* any payload is read —
  a hostile header cannot make the peer allocate unbounded memory;
* a CRC mismatch, an undecodable payload, or a payload that is not a
  ``{"type": str, ...}`` dict is a :class:`~repro.errors.ProtocolError`;
* a connection torn mid-frame surfaces as ``asyncio.IncompleteReadError``
  (a clean close between frames as an empty read) — never a crash.

DML statements cross the wire as constant records only
(:func:`statement_to_wire`): INSERT rows, UPDATE constant assignments, and
primary-key target lists are all expressible; Python callables (predicate
``where=`` / computed ``assignments=``) are *code* and are rejected
client-side rather than pickled.  Activations reuse the durable outbox
record vocabulary (:mod:`repro.persist.records`): one that travels alone is
the flat record, a delivery run is the outbox's node table plus thin rows
(:func:`~repro.persist.records.run_to_record`), so every distinct node text
crosses the wire — and is parsed by the receiver — once per frame.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Any, Mapping

from repro.errors import ProtocolError
from repro.persist.codec import decode_value, encode_value
from repro.persist.records import (
    activation_from_record,
    activation_to_record,
    run_from_record,
)
from repro.relational.dml import (
    DeleteStatement,
    InsertStatement,
    Statement,
    StatementResult,
    UpdateStatement,
)
from repro.serving.subscribers import Activation

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "HEADER",
    "CAP_ACTIVATION_BATCH",
    "SUPPORTED_CAPS",
    "MAX_BATCH_ACTIVATIONS",
    "negotiate_caps",
    "encode_frame",
    "read_frame",
    "read_frame_payload",
    "decode_payload",
    "statement_to_wire",
    "statement_from_wire",
    "result_to_wire",
    "activation_to_wire",
    "activation_from_wire",
    "run_from_wire",
]

#: Bumped on any frame- or message-level incompatibility; the ``hello`` /
#: ``welcome`` handshake rejects mismatched peers explicitly.  Capabilities
#: (below) extend the protocol *within* a version: a peer that does not
#: announce a capability simply never receives its frames.  Version 2 gave
#: ``activation_batch`` its node-table shape.
PROTOCOL_VERSION = 2

#: Default cap on one frame's payload (bytes).  Large enough for a bulk
#: trigger registration or a fat activation node, small enough that a
#: hostile length header cannot balloon the peer's memory.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: ``(length, crc32)`` — the same header the WAL's record frames use.
HEADER = struct.Struct(">II")

#: Capability: the client understands ``activation_batch`` frames (a whole
#: delivery run in one length+CRC frame).  A client that does not announce
#: it receives one ``activation`` frame per activation.
CAP_ACTIVATION_BATCH = "activation_batch"

#: Every capability this endpoint implementation knows how to speak.
SUPPORTED_CAPS = frozenset({CAP_ACTIVATION_BATCH})

#: Hard cap on activations in one node-table frame.  The byte budget
#: usually splits a run far earlier; this bounds what a hostile or buggy
#: peer can make the decoder materialize from a single frame.
MAX_BATCH_ACTIVATIONS = 4096


def negotiate_caps(announced: Any) -> frozenset[str]:
    """Validate a ``hello``/``welcome`` ``caps`` field and intersect it.

    ``None`` (field absent — an old peer) negotiates no capabilities.
    Unknown capability names are ignored, not rejected: a newer peer may
    announce things we do not speak, and the intersection is the contract.
    Anything that is not a list of strings is a :class:`ProtocolError`.
    """
    if announced is None:
        return frozenset()
    if not isinstance(announced, (list, tuple)) or not all(
        isinstance(cap, str) for cap in announced
    ):
        raise ProtocolError("'caps' must be a list of capability name strings")
    return SUPPORTED_CAPS.intersection(announced)


# ------------------------------------------------------------------ framing


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Encode one message dict into its length+CRC framed wire form."""
    if not isinstance(message, Mapping) or not isinstance(message.get("type"), str):
        raise ProtocolError("a wire message must be a dict with a str 'type'")
    payload = encode_value(dict(message))
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


async def read_frame_payload(
    reader: asyncio.StreamReader, *, max_frame: int = DEFAULT_MAX_FRAME
) -> bytes:
    """Read one frame and return its CRC-verified payload bytes.

    Raises :class:`~repro.errors.ProtocolError` for bad lengths and CRC
    mismatches and lets ``asyncio.IncompleteReadError`` / connection errors
    propagate for torn transports.  Callers that want to memoize decoding
    of identical frames (fan-out consumers) key on the returned bytes;
    everyone else goes through :func:`read_frame`.
    """
    header = await reader.readexactly(HEADER.size)
    length, crc = HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame (a message is never empty)")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    payload = await reader.readexactly(length)
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame CRC mismatch (corrupt or torn payload)")
    return payload


def decode_payload(payload: bytes) -> dict:
    """Decode a CRC-verified frame payload into its message dict."""
    try:
        message = decode_value(payload)
    except Exception as error:  # codec raises PersistenceError subclasses
        raise ProtocolError(f"undecodable frame payload: {error}") from error
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload is not a message dict with a 'type'")
    return message


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = DEFAULT_MAX_FRAME
) -> dict:
    """Read and validate one frame; returns the decoded message dict.

    Raises :class:`~repro.errors.ProtocolError` for every in-protocol
    malformation (bad length, CRC mismatch, undecodable or non-message
    payload) and lets ``asyncio.IncompleteReadError`` / connection errors
    propagate for torn transports — the caller decides whether a torn tail
    is an error (mid-conversation) or a normal close (between frames).
    """
    return decode_payload(await read_frame_payload(reader, max_frame=max_frame))


# ------------------------------------------------------------------ statements


def _keys_to_wire(statement: UpdateStatement | DeleteStatement) -> list | None:
    key_set = statement.key_set()
    if key_set is None:
        return None
    return [list(key) for key in sorted(key_set, key=repr)]


def statement_to_wire(statement: Statement) -> dict:
    """Encode one DML statement as a constant wire record.

    Only constant statements are expressible: INSERT rows, UPDATE with a
    mapping of constant assignments, DELETE — each optionally restricted to
    a primary-key target list.  Callable predicates and computed
    assignments raise :class:`~repro.errors.ProtocolError` (code does not
    cross the wire); re-express them as key-targeted constant statements.
    """
    if isinstance(statement, InsertStatement):
        rows = [
            dict(row) if isinstance(row, Mapping) else list(row)
            for row in statement.rows
        ]
        return {"kind": "insert", "table": statement.table, "rows": rows}
    if isinstance(statement, UpdateStatement):
        if callable(statement.assignments):
            raise ProtocolError(
                "computed assignments are code and cannot cross the wire; "
                "send a constant assignment mapping instead"
            )
        if statement.where is not None:
            raise ProtocolError(
                "predicate WHERE callables cannot cross the wire; restrict "
                "the statement with keys=[...] instead"
            )
        return {
            "kind": "update",
            "table": statement.table,
            "set": dict(statement.assignments),
            "keys": _keys_to_wire(statement),
        }
    if isinstance(statement, DeleteStatement):
        if statement.where is not None:
            raise ProtocolError(
                "predicate WHERE callables cannot cross the wire; restrict "
                "the statement with keys=[...] instead"
            )
        return {
            "kind": "delete",
            "table": statement.table,
            "keys": _keys_to_wire(statement),
        }
    raise ProtocolError(f"unsupported statement type {type(statement).__name__}")


def statement_from_wire(record: Any) -> Statement:
    """Decode a wire record back into a DML statement (strictly validated)."""
    if not isinstance(record, dict):
        raise ProtocolError("statement record must be a dict")
    kind = record.get("kind")
    table = record.get("table")
    if not isinstance(table, str) or not table:
        raise ProtocolError("statement record needs a non-empty 'table'")
    if kind == "insert":
        rows = record.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ProtocolError("insert record needs a non-empty 'rows' list")
        return InsertStatement(table, rows)
    if kind in ("update", "delete"):
        raw_keys = record.get("keys")
        keys: list[tuple] | None
        if raw_keys is None:
            keys = None
        elif isinstance(raw_keys, list):
            keys = [
                tuple(key) if isinstance(key, (list, tuple)) else (key,)
                for key in raw_keys
            ]
        else:
            raise ProtocolError("'keys' must be a list of key value lists, or None")
        if kind == "delete":
            return DeleteStatement(table, keys=keys)
        assignments = record.get("set")
        if not isinstance(assignments, dict) or not assignments:
            raise ProtocolError("update record needs a non-empty 'set' mapping")
        return UpdateStatement(table, assignments, keys=keys)
    raise ProtocolError(f"unknown statement kind {kind!r}")


def result_to_wire(result: StatementResult) -> dict:
    """Summarize one execution result for the submitting client.

    Transition tables stay server-side (they can reference the whole touched
    row set); the client receives the accounting a SQL driver would: target
    table, event, row count, and which XML triggers fired.
    """
    return {
        "table": result.table,
        "event": result.event,
        "rowcount": result.rowcount,
        "fired": [str(name) for name in result.fired_xml_triggers],
    }


# ------------------------------------------------------------------ activations


def activation_to_wire(activation: Activation) -> dict:
    """Encode an activation exactly as the durable outbox records it."""
    return activation_to_record(activation)


#: Process-wide parsed-node memo for wire decode — the decode-side mirror
#: of the server's :class:`~repro.serving.net.frames.SharedFrameCache`.  A
#: many-client process (fan-out tests, benchmarks) would otherwise re-parse
#: the same serialized node once per client.  Bounded by
#: ``records.NODE_CACHE_LIMIT``; plain-dict operations keep it safe under
#: the GIL (the worst race costs one duplicate parse).
_WIRE_NODE_CACHE: dict[str, Any] = {}


def activation_from_wire(record: Any) -> Activation:
    """Decode an activation wire record (strictly validated)."""
    if not isinstance(record, dict):
        raise ProtocolError("activation record must be a dict")
    try:
        return activation_from_record(record, node_cache=_WIRE_NODE_CACHE)
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"malformed activation record: {error}") from error


def run_from_wire(
    message: Mapping[str, Any], *, max_activations: int = MAX_BATCH_ACTIVATIONS
) -> list[Activation]:
    """Decode a node-table message (TCP ``activation_batch``, web ``activations``).

    The frame layer already bounded the bytes; this bounds and shapes the
    *contents* before anything is built from them: ``nodes`` is a list of
    ``[old text or None, new text or None]``, ``acts`` a non-empty list of
    at most ``max_activations`` eight-field rows whose last field indexes
    ``nodes``.  Each distinct node text is then parsed once; one that does
    not parse fails the frame exactly like a malformed single activation.
    """
    nodes, acts = message.get("nodes"), message.get("acts")
    if not isinstance(nodes, list):
        raise ProtocolError("an activation run needs a 'nodes' list")
    for entry in nodes:
        if not (
            isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(text is None or isinstance(text, str) for text in entry)
        ):
            raise ProtocolError("a 'nodes' entry must be [old text or None, new text or None]")
    if not isinstance(acts, list) or not acts:
        raise ProtocolError("an activation run needs a non-empty 'acts' list")
    if len(acts) > max_activations:
        raise ProtocolError(
            f"activation run of {len(acts)} activations exceeds the "
            f"{max_activations}-activation limit"
        )
    for row in acts:
        if not isinstance(row, (list, tuple)) or len(row) != 8:
            raise ProtocolError(
                "an 'acts' row must be [shard, sequence, trigger, view, path, event, "
                "key, nodes index]"
            )
        shard, sequence, trigger, view, path, _event, key, at = row
        if not (
            type(shard) is int and type(sequence) is int
            and isinstance(trigger, str) and isinstance(view, str)
            and isinstance(path, (list, tuple)) and isinstance(key, (list, tuple))
        ):
            raise ProtocolError(f"malformed activation row {row!r}")
        if type(at) is not int or not 0 <= at < len(nodes):
            raise ProtocolError(f"activation row names node {at!r} of {len(nodes)}")
    try:
        return run_from_record(message, node_cache=_WIRE_NODE_CACHE)
    except Exception as error:
        raise ProtocolError(f"malformed activation record: {error}") from error
