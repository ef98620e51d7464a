"""Isolated per-layer timings, replayed on inputs captured during a traced run.

A hook can say *when* a layer boundary was crossed but not how long one
inner step took, so these steps are re-executed after the run, outside the
program, through the layer's own public functions and on the very inputs
the run produced.  Every function returns ``{metric name: value}``.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.grouping import group_triggers
from repro.core.trigger import TriggerSpec
from repro.matching import GroupMatcher, MatchStats, analyze_condition
from repro.persist.codec import encode_value
from repro.persist.records import delta_to_record
from repro.persist.wal import RecordLog
from repro.serving.net import activation_to_wire, encode_frame
from repro.serving.net.protocol import HEADER, decode_payload
from repro.serving.subscribers import Activation
from repro.serving.web import JsonFrameCache
from repro.xmlmodel import XPath, serialize

from benchmarks.e2e.measure import median, now

#: Captured inputs replayed per metric (more adds time, not information).
SAMPLE = 256


def _median_us(call: Callable[[object], object], inputs: Sequence[object]) -> float:
    durations = []
    for item in inputs:
        started = now()
        call(item)
        durations.append(now() - started)
    return median(durations) * 1e6


def matching_probe(specs: Iterable[TriggerSpec], pairs: Sequence[tuple]) -> dict[str, float]:
    """``matching.probe_us``: candidate selection for one affected pair.

    ``pairs`` are captured ``(event, old_node, new_node)``; each is probed
    through standalone matchers built from the live trigger population, one
    per trigger group of that event — what one statement costs the layer.
    """
    matchers: dict[object, list[GroupMatcher]] = {}
    for group in group_triggers(specs):
        condition = group.parameterized_condition()
        plan = None if condition is None else analyze_condition(condition)
        matchers.setdefault(group.representative.event, []).append(
            GroupMatcher.build(condition, plan, group.members)
        )
    stats = MatchStats()

    def probe(pair: tuple) -> None:
        event, old_node, new_node = pair
        variables = {"OLD_NODE": old_node, "NEW_NODE": new_node}
        for matcher in matchers.get(event, ()):
            matcher.candidates(variables, stats)

    return {"matching.probe_us": _median_us(probe, pairs[:SAMPLE])}


def xmlmodel(nodes: Sequence[object], condition: str | None) -> dict[str, float]:
    """Serialize captured nodes and evaluate one trigger condition on them."""
    nodes = list(nodes[:SAMPLE])
    sizes = [len(serialize(node).encode()) for node in nodes]
    result = {
        "xmlmodel.serialize_us": _median_us(serialize, nodes),
        "xmlmodel.node_bytes_p50": median(sizes),
        "xmlmodel.xpath_us": 0.0,
    }
    if condition is not None:
        compiled = XPath(condition)
        result["xmlmodel.xpath_us"] = _median_us(
            lambda node: compiled.as_boolean({"OLD_NODE": node, "NEW_NODE": node}), nodes
        )
    return result


def persist(apply_payloads: Sequence[list], sync: str, scratch: Path) -> dict[str, float]:
    """Encode and append captured ``apply`` commit events to a scratch log."""
    records = [
        {"kind": "apply", "deltas": [delta_to_record(delta) for delta in deltas]}
        for deltas in apply_payloads[:SAMPLE]
    ]
    directory = Path(tempfile.mkdtemp(prefix="replay-", dir=scratch))
    try:
        log = RecordLog(directory / "probe.log", sync=sync)
        try:
            append_us = _median_us(log.append, records)
        finally:
            log.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "persist.encode_us": _median_us(encode_value, records),
        "persist.append_us": append_us,
    }


def wire(activations: Sequence[Activation]) -> dict[str, float]:
    """Binary frame encode/decode of captured activations, uncached."""
    activations = list(activations[:SAMPLE])

    def encode(activation: Activation) -> bytes:
        return encode_frame({"type": "activation", "payload": activation_to_wire(activation)})

    frames = [encode(activation) for activation in activations]
    return {
        "serving.net.encode_us": _median_us(encode, activations),
        "serving.net.decode_us": _median_us(
            lambda frame: decode_payload(frame[HEADER.size:]), frames
        ),
        "serving.net.bytes_per_activation": median([len(frame) for frame in frames]),
    }


def web(activations: Sequence[Activation]) -> dict[str, float]:
    """Size of the JSON TEXT frame the gateway sends per activation."""
    cache = JsonFrameCache()
    return {
        "serving.web.json_bytes_per_activation": median(
            [len(cache.frame(activation)) for activation in activations[:SAMPLE]]
        )
    }
