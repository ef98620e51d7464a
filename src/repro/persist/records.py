"""Conversions between engine objects and codec-encodable log records.

Everything the durability layer writes is a plain dict of scalars, lists and
dicts (see :mod:`repro.persist.codec`); this module is the single place that
knows how engine objects map onto those records, so the WAL, the snapshot,
and the outbox all share one vocabulary:

* table schemas ↔ ``{"name", "columns", "primary_key", "foreign_keys",
  "unique"}``;
* net coalesced deltas ↔ ``{"table", "event", "inserted", "deleted"}`` with
  rows as value lists in schema column order;
* XML trigger specs ↔ their declarative fields (name, event, view, path,
  condition text, action call) — the whole translation pipeline re-derives
  SQL triggers, groups, and constants tables from these at recovery;
* activations ↔ scalars plus the OLD/NEW nodes as XML text, read from the
  activation's :class:`~repro.xmlmodel.serialize.EncodedPair` (one
  serialization per affected pair, whoever encodes first) and re-parsed on
  redelivery — a node table plus thin rows, one record per *bundle* in
  the outbox and one per delivery *run* on the wire (an activation that
  travels alone keeps the flat single-activation record).
"""

from __future__ import annotations

from typing import Any, Iterable, MutableMapping, Sequence

from repro.core.trigger import TriggerSpec
from repro.relational.dml import CoalescedDelta
from repro.relational.schema import Column, ForeignKey, TableSchema, UniqueConstraint
from repro.relational.types import DataType
from repro.relational.triggers import TriggerEvent
from repro.serving.subscribers import Activation
from repro.xmlmodel.parse import parse_xml
from repro.xmlmodel.serialize import EncodedPair

__all__ = [
    "schema_to_record",
    "schema_from_record",
    "rows_to_lists",
    "delta_to_record",
    "spec_to_record",
    "spec_from_record",
    "activation_to_record",
    "activation_from_record",
    "bundle_to_record",
    "bundle_from_record",
    "run_to_record",
    "run_from_record",
]


# ------------------------------------------------------------------ schemas


def schema_to_record(schema: TableSchema) -> dict:
    """Serialize a table schema (columns, keys, constraints)."""
    return {
        "name": schema.name,
        "columns": [
            [column.name, column.dtype.value, column.nullable]
            for column in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            [list(fk.columns), fk.parent_table, list(fk.parent_columns)]
            for fk in schema.foreign_keys
        ],
        "unique": [list(constraint.columns) for constraint in schema.unique_constraints],
    }


def schema_from_record(record: dict) -> TableSchema:
    """Rebuild a table schema from its record."""
    return TableSchema(
        record["name"],
        [
            Column(name, DataType(dtype), nullable)
            for name, dtype, nullable in record["columns"]
        ],
        primary_key=record["primary_key"] or None,
        foreign_keys=[
            ForeignKey(tuple(columns), parent, tuple(parent_columns))
            for columns, parent, parent_columns in record["foreign_keys"]
        ],
        unique=[UniqueConstraint(tuple(columns)) for columns in record["unique"]],
    )


# ------------------------------------------------------------------ deltas


def rows_to_lists(rows: Iterable[Sequence[Any]]) -> list[list[Any]]:
    """Rows as plain value lists (schema column order)."""
    return [list(row) for row in rows]


def delta_to_record(delta: CoalescedDelta) -> dict:
    """Serialize one net (table, event) delta slice."""
    return {
        "table": delta.table,
        "event": delta.event,
        "inserted": rows_to_lists(delta.inserted.rows),
        "deleted": rows_to_lists(delta.deleted.rows),
    }


# ------------------------------------------------------------------ trigger specs


def spec_to_record(spec: TriggerSpec) -> dict:
    """Serialize an XML trigger spec's declarative fields."""
    return {
        "name": spec.name,
        "event": spec.event.value,
        "view": spec.view,
        "path": list(spec.path),
        "condition": spec.condition,
        "action_name": spec.action_name,
        "action_args": list(spec.action_args),
        "source": spec.source,
    }


def spec_from_record(record: dict) -> TriggerSpec:
    """Rebuild a trigger spec; ``create_trigger`` re-derives everything else."""
    return TriggerSpec(
        name=record["name"],
        event=TriggerEvent(record["event"]),
        view=record["view"],
        path=tuple(record["path"]),
        condition=record["condition"],
        action_name=record["action_name"],
        action_args=tuple(record["action_args"]),
        source=record["source"],
    )


# ------------------------------------------------------------------ activations


def activation_to_record(activation: Activation) -> dict:
    """Serialize an activation for the wire; OLD/NEW nodes become XML text.

    The text comes from the activation's encoded-pair holder, so the sibling
    activations of one affected node and every encoder of one activation
    (outbox, TCP frame, WebSocket frame) share one serialization.
    """
    encoded = activation.encoded
    return {
        "shard": activation.shard,
        "sequence": activation.sequence,
        "trigger": activation.trigger,
        "view": activation.view,
        "path": list(activation.path),
        "event": activation.event.value,
        "key": list(activation.key),
        "old": encoded.old_text,
        "new": encoded.new_text,
    }


#: Bound on a caller-supplied node cache (see ``activation_from_record``).
NODE_CACHE_LIMIT = 1024


def _parse_node(source: str, cache: MutableMapping[str, Any] | None):
    """Parse a serialized node, memoized in ``cache`` when one is given.

    A fan-out consumer decodes the *same* serialized node once per
    redelivery (and a many-client process once per client); parsing
    dominates activation decode by orders of magnitude, so sharing the
    parsed node is the decode-side mirror of the server's shared encode
    cache.  Sharing is safe for the same reason in-process subscribers
    share one :class:`Activation`: delivered nodes are read-only snapshots.
    """
    if cache is None:
        return parse_xml(source)
    node = cache.get(source)
    if node is None:
        node = parse_xml(source)
        if len(cache) >= NODE_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[source] = node
    return node


def activation_from_record(
    record: dict, *, node_cache: MutableMapping[str, Any] | None = None
) -> Activation:
    """Rebuild an activation, re-parsing (or cache-sharing) the nodes.

    The received text fills the activation's encoded-pair holder, so
    redelivering or re-encoding a decoded activation serializes nothing.
    """
    old_text, new_text = record["old"], record["new"]
    old_node = _parse_node(old_text, node_cache) if old_text is not None else None
    new_node = _parse_node(new_text, node_cache) if new_text is not None else None
    return Activation(
        shard=record["shard"],
        sequence=record["sequence"],
        trigger=record["trigger"],
        view=record["view"],
        path=tuple(record["path"]),
        event=TriggerEvent(record["event"]),
        key=tuple(record["key"]),
        old_node=old_node,
        new_node=new_node,
        encoded=EncodedPair(old_node, new_node, old_text, new_text),
    )


def _node_table(activations: Sequence[Activation]) -> tuple[list, list[int]]:
    """``([[OLD text, NEW text] per distinct pair], each activation's index in it)``.

    Distinct means "of a different :class:`EncodedPair`" — sibling
    activations share theirs by reference — so no text is hashed or compared.
    """
    nodes: list[list[str | None]] = []
    index: dict[int, int] = {}
    places = []
    for activation in activations:
        encoded = activation.encoded
        at = index.get(id(encoded))
        if at is None:
            at = index[id(encoded)] = len(nodes)
            nodes.append([encoded.old_text, encoded.new_text])
        places.append(at)
    return nodes, places


def bundle_to_record(activations: Sequence[Activation]) -> dict:
    """One shard's activations, in sequence order, as one outbox record.

    ``nodes`` holds each distinct ``[OLD text, NEW text]`` once and ``acts``
    one thin row per activation naming its nodes by index
    (:func:`_node_table`).  ``shard`` and ``last``
    (the highest sequence) come first: recovery drops a bundle everyone has
    acked on those two alone.
    """
    nodes, places = _node_table(activations)
    acts = [
        [a.sequence, a.trigger, a.view, a.path, a.event.value, a.key, at]
        for a, at in zip(activations, places)
    ]
    return {
        "shard": activations[0].shard, "last": activations[-1].sequence,
        "nodes": nodes, "acts": acts,
    }


def bundle_from_record(record: dict, after: float = 0) -> list[Activation]:
    """The record's activations beyond sequence ``after``.

    Each node they name is parsed once and each pair gets one
    :class:`EncodedPair` holding the stored text, shared by its activations
    — as when the bundle was produced.
    """
    shard = record["shard"]
    pairs: dict[int, tuple] = {}
    activations = []
    for sequence, trigger, view, path, event, key, at in record["acts"]:
        if sequence <= after:
            continue
        pair = pairs.get(at)
        if pair is None:
            texts = record["nodes"][at]
            old, new = (None if text is None else parse_xml(text) for text in texts)
            pair = pairs[at] = old, new, EncodedPair(old, new, *texts)
        activations.append(Activation(
            shard, sequence, trigger, view, path, TriggerEvent(event), key, *pair
        ))
    return activations


def run_to_record(activations: Sequence[Activation]) -> dict:
    """A delivery run — any shards, any order — as one wire record.

    The bundle record's shape with the shard moved into the rows: ``nodes``
    holds each distinct ``[OLD text, NEW text]`` once, ``acts`` one row
    ``[shard, sequence, trigger, view, path, event, key, nodes index]`` per
    activation, in run order.
    """
    nodes, places = _node_table(activations)
    acts = [
        [a.shard, a.sequence, a.trigger, a.view, a.path, a.event.value, a.key, at]
        for a, at in zip(activations, places)
    ]
    return {"nodes": nodes, "acts": acts}


def run_from_record(
    record: dict, *, node_cache: MutableMapping[str, Any] | None = None
) -> list[Activation]:
    """The activations of a run record, in order.

    Each entry of the node table is parsed once (or taken from
    ``node_cache``) and gets one :class:`EncodedPair` holding the received
    text, shared by the activations that name it.
    """
    pairs = []
    for old_text, new_text in record["nodes"]:
        old = None if old_text is None else _parse_node(old_text, node_cache)
        new = None if new_text is None else _parse_node(new_text, node_cache)
        pairs.append((old, new, EncodedPair(old, new, old_text, new_text)))
    return [
        Activation(
            shard, sequence, trigger, view, tuple(path), TriggerEvent(event), tuple(key),
            *pairs[at],
        )
        for shard, sequence, trigger, view, path, event, key, at in record["acts"]
    ]
