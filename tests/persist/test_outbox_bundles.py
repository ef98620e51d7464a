"""The outbox's bundle record under crashes: torn frames, acked prefixes, old files.

One micro-batch's activations are one outbox frame, appended and flushed
*before* any of them is delivered.  A crash inside that append therefore
tears a frame none of whose activations anyone has seen: reopening trims
it, redelivers exactly the earlier bundles' unacked activations and keeps
numbering beyond everything acked.  ``REPRO_PROPERTY_EXAMPLES`` adds random
tear offsets to the fixed ones (header, node table, thin rows);
``REPRO_TEST_SEED`` replays them.
"""

from __future__ import annotations

import os
import shutil
import struct

import pytest

from repro.errors import RecoveryError
from repro.persist import records as records_module
from repro.persist.wal import RecordLog

from tests.serving.conftest import (
    SIBLINGS,
    load_sibling_durable,
    open_sibling_durable,
    price_update,
    sibling_hierarchy,
    stream_position as position,
)

EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "15"))
BUNDLES = 3
ACKED = SIBLINGS + 3  # the first bundle and part of the second


def frame_offsets(raw: bytes) -> list[int]:
    """Start offset of every frame in a record log's bytes."""
    offsets, offset = [], 0
    while offset < len(raw):
        offsets.append(offset)
        (length,) = struct.unpack_from(">I", raw, offset)
        offset += 8 + length
    assert offset == len(raw)
    return offsets


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    """A crashed one-shard server: three bundles in the outbox, ``inbox``
    acked the first and part of the second."""
    directory = tmp_path_factory.mktemp("crashed")
    workload = sibling_hierarchy()
    durable = open_sibling_durable(directory, workload, shard_count=1)
    load_sibling_durable(durable, workload)
    inbox = durable.subscribe("inbox", capacity=256)
    with durable:
        for top in range(1, BUNDLES + 1):
            durable.execute(price_update(workload, top, 500.0 + top))
    delivered = inbox.drain()
    assert len(delivered) == SIBLINGS * BUNDLES
    for activation in delivered[:ACKED]:
        inbox.ack(activation)
    raw = (directory / "outbox.log").read_bytes()
    starts = frame_offsets(raw)
    assert len(starts) == BUNDLES
    # Crash: the tests copy the directory as it is now — no close(), no
    # snapshot() has touched it.
    yield directory, workload, [position(a) for a in delivered], raw, starts[-1]
    durable.close()


def tear_offsets(raw: bytes, start: int, rng) -> dict[str, int]:
    """Where to cut the last frame: one offset per region, plus random ones."""
    node = raw.index(b"<", start)  # first node text of the node table
    acts = raw.index(b"t3_0", start)  # first thin row's trigger name
    assert start + 8 < node < acts
    offsets = {
        "header": start + 3,
        "header-only": start + 8,
        "node-table": node + 10,
        "acts": acts + 2,
        "last-byte": len(raw) - 1,
    }
    for n in range(EXAMPLES):
        offsets[f"random-{n}"] = rng.randrange(start + 1, len(raw))
    return offsets


def test_torn_last_bundle_is_trimmed_and_earlier_bundles_redelivered(
    crashed, tmp_path, session_rng
):
    directory, workload, stream, raw, start = crashed
    unacked = stream[ACKED:SIBLINGS * (BUNDLES - 1)]
    for label, cut in tear_offsets(raw, start, session_rng).items():
        copy = tmp_path / label
        shutil.copytree(directory, copy)
        os.truncate(copy / "outbox.log", cut)
        recovered = open_sibling_durable(copy, workload, shard_count=1)
        try:
            assert recovered.outbox.byte_size == start, label
            inbox = recovered.subscribe("inbox", capacity=256)
            assert [position(a) for a in inbox.drain()] == unacked, label
            assert recovered.redelivered == {"inbox": len(unacked)}, label
            # The torn bundle was never delivered, so its numbers are free
            # again; nothing acked is ever renumbered.
            assert recovered.server.sequences == [SIBLINGS * (BUNDLES - 1)], label
            with recovered:
                recovered.execute(price_update(workload, 9, 777.0))
            fresh = [a.sequence for a in inbox.drain()]
            first = SIBLINGS * (BUNDLES - 1) + 1
            assert fresh == list(range(first, first + SIBLINGS)), label
            assert fresh[0] > ACKED
        finally:
            recovered.close()


def test_intact_outbox_redelivers_every_unacked_activation(crashed, tmp_path):
    directory, workload, stream, _raw, _start = crashed
    copy = tmp_path / "intact"
    shutil.copytree(directory, copy)
    recovered = open_sibling_durable(copy, workload, shard_count=1)
    try:
        inbox = recovered.subscribe("inbox", capacity=256)
        backlog = inbox.drain()
        assert [position(a) for a in backlog] == stream[ACKED:]
        # Sibling activations share one pair holder again, as when produced.
        assert len({id(a.encoded) for a in backlog}) == len({a.key for a in backlog})
        assert recovered.server.sequences == [SIBLINGS * BUNDLES]
    finally:
        recovered.close()


def test_bundle_everyone_acked_is_dropped_without_parsing(crashed, tmp_path, monkeypatch):
    directory, workload, stream, _raw, _start = crashed
    copy = tmp_path / "acked"
    shutil.copytree(directory, copy)
    parsed: list[str] = []
    original = records_module.parse_xml

    def counting_parse(source):
        parsed.append(source)
        return original(source)

    monkeypatch.setattr(records_module, "parse_xml", counting_parse)
    recovered = open_sibling_durable(copy, workload, shard_count=1)
    try:
        # Bundle 1 is wholly acked: its two nodes are never parsed; bundles 2
        # and 3 have unacked rows: two distinct nodes each, parsed once.
        assert len(parsed) == 2 * (BUNDLES - 1)
        assert not {stream[0][4], stream[0][5]} & set(parsed)
        assert recovered.durability_report()["outbox_pending"] == len(stream) - ACKED
        assert [a.sequence for a in recovered._pending] == list(
            range(ACKED + 1, len(stream) + 1)
        )
    finally:
        recovered.close()


def test_per_activation_outbox_of_an_earlier_version_is_refused(tmp_path):
    old = RecordLog(tmp_path / "outbox.log")
    old.append({
        "shard": 0, "sequence": 1, "trigger": "t1_0", "view": "v", "path": ["top"],
        "event": "UPDATE", "key": [1], "old": "<top/>", "new": "<top/>",
    })
    old.close()
    with pytest.raises(RecoveryError, match=r"earlier version.*snapshot\(\)"):
        open_sibling_durable(tmp_path, sibling_hierarchy(), shard_count=1)
